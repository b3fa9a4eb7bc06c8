package algebra

import (
	"fmt"

	"inkfuse/internal/core"
	"inkfuse/internal/ir"
	"inkfuse/internal/rt"
	"inkfuse/internal/types"
)

func (l *lowerer) lowerJoin(n *HashJoin, required []string) error {
	buildSchema, err := n.Build.Schema()
	if err != nil {
		return err
	}
	probeSchema, err := n.Probe.Schema()
	if err != nil {
		return err
	}
	reqSet := toSet(required)
	probeKeySet := toSet(n.ProbeKeys)
	buildKeySet := toSet(n.BuildKeys)

	// Build-side columns carried through the hash table.
	var carry []string
	for _, c := range n.BuildCols {
		if reqSet[c] {
			carry = append(carry, c)
		}
	}

	// --- Build pipeline: pack key + payload, insert (paper §IV-E).
	lb := &lowerer{plan: l.plan, params: l.params}
	breq := dedupe(append(append([]string{}, n.BuildKeys...), carry...))
	if err := lb.lower(n.Build, breq); err != nil {
		return err
	}
	bFields := make([]rt.Field, 0, len(n.BuildKeys)+len(carry))
	for _, k := range n.BuildKeys {
		i := buildSchema.IndexOf(k)
		bFields = append(bFields, rt.Field{Kind: buildSchema[i].Kind, Key: true})
	}
	for _, c := range carry {
		i := buildSchema.IndexOf(c)
		bFields = append(bFields, rt.Field{Kind: buildSchema[i].Kind})
	}
	bLayout := rt.NewLayout(bFields)
	bRL := &rt.RowLayoutState{KeyFixed: bLayout.KeyFixedWidth, PayloadFixed: bLayout.PayloadFixedWidth}
	jt := &rt.JoinTableState{Table: rt.NewJoinTable(16)}

	anchor, err := lb.anyBound(n.BuildKeys)
	if err != nil {
		return err
	}
	row := core.NewIU(types.Ptr, "build_row")
	lb.add(&core.MakeRow{Anchor: anchor, Layout: bRL, Out: row})
	keyLayoutView := &rt.Layout{ // key-field view for packKey
		FixedOff:      bLayout.FixedOff[:len(n.BuildKeys)],
		VarIdx:        bLayout.VarIdx[:len(n.BuildKeys)],
		KeyFixedWidth: bLayout.KeyFixedWidth,
	}
	row, err = lb.packKey(row, bRL, keyLayoutView, n.BuildKeys)
	if err != nil {
		return err
	}
	row, err = lb.packPayload(row, bRL, bLayout, len(n.BuildKeys), carry)
	if err != nil {
		return err
	}
	lb.add(&core.JoinInsert{Row: row, State: jt})
	lb.pipe.SealJoins = append(lb.pipe.SealJoins, jt)
	l.plan.Pipelines = append(l.plan.Pipelines, lb.pipe)

	// --- Probe side: continues the current pipeline.
	var probeCarry []string
	for _, c := range required {
		if probeSchema.IndexOf(c) >= 0 && !probeKeySet[c] {
			probeCarry = append(probeCarry, c)
		}
	}
	preq := dedupe(append(append([]string{}, n.ProbeKeys...), probeCarry...))
	if err := l.lower(n.Probe, preq); err != nil {
		return err
	}
	pFields := make([]rt.Field, 0, len(n.ProbeKeys)+len(probeCarry))
	for _, k := range n.ProbeKeys {
		i := probeSchema.IndexOf(k)
		pFields = append(pFields, rt.Field{Kind: probeSchema[i].Kind, Key: true})
	}
	for _, c := range probeCarry {
		i := probeSchema.IndexOf(c)
		pFields = append(pFields, rt.Field{Kind: probeSchema[i].Kind})
	}
	pLayout := rt.NewLayout(pFields)
	pRL := &rt.RowLayoutState{KeyFixed: pLayout.KeyFixedWidth, PayloadFixed: pLayout.PayloadFixedWidth}

	panchor, err := l.anyBound(n.ProbeKeys)
	if err != nil {
		return err
	}
	prow := core.NewIU(types.Ptr, "probe_row")
	l.add(&core.MakeRow{Anchor: panchor, Layout: pRL, Out: prow})
	pKeyView := &rt.Layout{
		FixedOff:      pLayout.FixedOff[:len(n.ProbeKeys)],
		VarIdx:        pLayout.VarIdx[:len(n.ProbeKeys)],
		KeyFixedWidth: pLayout.KeyFixedWidth,
	}
	prow, err = l.packKey(prow, pRL, pKeyView, n.ProbeKeys)
	if err != nil {
		return err
	}
	prow, err = l.packPayload(prow, pRL, pLayout, len(n.ProbeKeys), probeCarry)
	if err != nil {
		return err
	}

	probe := &core.JoinProbe{
		Row:        prow,
		State:      jt,
		Mode:       n.Mode,
		BuildOut:   core.NewIU(types.Ptr, "jbuild"),
		ProbeOut:   core.NewIU(types.Ptr, "jprobe"),
		MatchedOut: core.NewIU(types.Bool, "jmatched"),
	}
	l.add(probe)

	// --- Unpack the required columns from the two packed rows.
	newCols := make(map[string]*core.IU)
	for _, c := range dedupe(required) {
		switch {
		case n.Mode == ir.LeftOuterJoin && c == n.MatchedAs:
			newCols[c] = probe.MatchedOut
		case probeSchema.IndexOf(c) >= 0:
			iu, err := l.unpackJoinCol(probe.ProbeOut, probeSchema, pLayout, n.ProbeKeys, probeCarry, c)
			if err != nil {
				return err
			}
			newCols[c] = iu
		case buildSchema.IndexOf(c) >= 0 && (n.Mode == ir.InnerJoin || n.Mode == ir.LeftOuterJoin):
			if !buildKeySet[c] && !contains(carry, c) {
				return fmt.Errorf("algebra: build column %q not carried through join", c)
			}
			iu, err := l.unpackJoinCol(probe.BuildOut, buildSchema, bLayout, n.BuildKeys, carry, c)
			if err != nil {
				return err
			}
			newCols[c] = iu
		default:
			return fmt.Errorf("algebra: join cannot provide column %q", c)
		}
	}
	l.cols = newCols
	return nil
}

// packPayload emits payload packing for the carried columns; fields[keyCount:]
// describe them in layout.
func (l *lowerer) packPayload(row *core.IU, rl *rt.RowLayoutState, layout *rt.Layout, keyCount int, carry []string) (*core.IU, error) {
	for j, c := range carry {
		fi := keyCount + j
		if layout.FixedOff[fi] < 0 {
			continue
		}
		val, ok := l.cols[c]
		if !ok {
			return nil, fmt.Errorf("algebra: payload column %q not bound", c)
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackFixed{Row: row, Val: val, Region: ir.PayloadRegion,
			Off: &rt.OffsetState{Off: layout.FixedOff[fi], Layout: rl}, Out: out})
		row = out
	}
	for j, c := range carry {
		fi := keyCount + j
		if layout.VarIdx[fi] < 0 {
			continue
		}
		val, ok := l.cols[c]
		if !ok {
			return nil, fmt.Errorf("algebra: payload column %q not bound", c)
		}
		out := core.NewIU(types.Ptr, row.Name)
		l.add(&core.PackStr{Row: row, Val: val, Region: ir.PayloadRegion,
			Off: &rt.OffsetState{Layout: rl}, Out: out})
		row = out
	}
	return row, nil
}

// unpackJoinCol recovers one column from a packed row after a probe.
func (l *lowerer) unpackJoinCol(row *core.IU, schema types.Schema, layout *rt.Layout,
	keys, carry []string, name string) (*core.IU, error) {
	k := schema[schema.IndexOf(name)].Kind
	for i, kn := range keys {
		if kn == name {
			return l.unpackField(row, ir.KeyRegion, k, layout.FixedOff[i],
				layout.KeyFixedWidth, layout.VarIdx[i], name)
		}
	}
	for j, cn := range carry {
		if cn == name {
			fi := len(keys) + j
			return l.unpackField(row, ir.PayloadRegion, k, layout.FixedOff[fi],
				layout.PayloadFixedWidth, layout.VarIdx[fi], name)
		}
	}
	return nil, fmt.Errorf("algebra: column %q not packed in join row", name)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
