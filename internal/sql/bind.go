package sql

import (
	"fmt"
	"strconv"

	"inkfuse/internal/algebra"
	"inkfuse/internal/ir"
	"inkfuse/internal/storage"
	"inkfuse/internal/types"
)

// binder lowers a parsed statement into an algebra tree. Every literal it
// converts is tagged with a parameter ref (Args grows one entry per ref), so
// the resulting tree fingerprints parameter-invariantly and executions patch
// the concrete values in afterwards — the plancache contract.
type binder struct {
	cat        *storage.Catalog
	args       []Arg
	paramKinds []types.Kind // per ? placeholder, filled as they bind
	synthA     int          // pre-aggregate map columns  __a<N>
	synthS     int          // aggregate output columns   __s<N>
	synthM     int          // outer-join match markers   __matched<N>
}

func (b *binder) nextRef(a Arg) int {
	b.args = append(b.args, a)
	return len(b.args)
}

// leafRel is one FROM relation: a base-table scan or a bound derived table,
// accumulating the filter conjuncts pushed down to it.
type leafRel struct {
	alias   string
	node    algebra.Node
	sch     types.Schema
	filters []algebra.Expr
}

// fromNode is the join tree over the leaves. Join nodes get their ON clause
// split into equi-join keys, pushed-down side filters, and residual
// conjuncts during processJoins.
type fromNode struct {
	p    Position
	leaf *leafRel

	l, r         *fromNode
	outer        bool
	on           expr
	lKeys, rKeys []string       // equi-key column pairs, left-side / right-side
	residual     []algebra.Expr // cross-side non-key conjuncts (inner only)
	pending      []algebra.Expr // side-local conjuncts spanning several leaves
}

// exprCtx carries name resolution for expression conversion.
type exprCtx struct {
	sch  types.Schema            // flat schema resolving bare column names
	rels map[string]types.Schema // alias → schema for qualified names
	agg  map[*callExpr]string    // post-aggregate substitution (nil elsewhere)
}

func (b *binder) bindSelect(sel *selectStmt, top bool) (algebra.Node, []string, error) {
	if !top && (len(sel.OrderBy) > 0 || sel.Limit > 0) {
		return nil, nil, &BindError{Pos: sel.p, Msg: "ORDER BY / LIMIT are only supported on the outermost query"}
	}

	tree, leaves, err := b.buildFrom(sel.From)
	if err != nil {
		return nil, nil, err
	}
	rels := make(map[string]types.Schema, len(leaves))
	var flat types.Schema
	seenCol := make(map[string]bool)
	for _, lf := range leaves {
		if _, dup := rels[lf.alias]; dup {
			return nil, nil, &BindError{Pos: sel.p, Msg: fmt.Sprintf("duplicate table alias %q", lf.alias)}
		}
		rels[lf.alias] = lf.sch
		for _, c := range lf.sch {
			if seenCol[c.Name] {
				return nil, nil, &BindError{Pos: sel.p, Msg: fmt.Sprintf("column %q appears in more than one FROM relation", c.Name)}
			}
			seenCol[c.Name] = true
			flat = append(flat, c)
		}
	}
	ctx := &exprCtx{sch: flat, rels: rels}

	if err := b.processJoins(tree, ctx); err != nil {
		return nil, nil, err
	}

	// WHERE: split into conjuncts; each is pushed to the single leaf covering
	// its columns, kept as a residual filter above the join tree, or — for
	// [NOT] EXISTS — turned into a semi/anti join around it.
	var residual []algebra.Expr
	var existsConjs []*existsExpr
	if sel.Where != nil {
		for _, c := range splitAnd(sel.Where) {
			if ex, ok := c.(*existsExpr); ok {
				existsConjs = append(existsConjs, ex)
				continue
			}
			cols := refNames(c, nil)
			if len(cols) == 0 {
				return nil, nil, &BindError{Pos: c.pos(), Msg: "predicate references no columns"}
			}
			conv, err := b.convert(c, ctx)
			if err != nil {
				return nil, nil, err
			}
			if leaf := findLeaf(tree, cols); leaf != nil {
				leaf.filters = append(leaf.filters, conv)
			} else {
				residual = append(residual, conv)
			}
		}
	}

	refs := collectRefs(sel)
	counted := scanCounted(sel.Items)
	root, err := b.realize(tree, refs, counted)
	if err != nil {
		return nil, nil, err
	}
	if len(residual) > 0 {
		root = algebra.NewFilter(root, algebra.And(residual...))
	}
	for _, ex := range existsConjs {
		root, err = b.bindExists(ex, ctx, root)
		if err != nil {
			return nil, nil, err
		}
	}

	root, outNames, err := b.bindItems(sel, root, rels, counted)
	if err != nil {
		return nil, nil, err
	}

	if len(sel.OrderBy) > 0 {
		finalSch, err := root.Schema()
		if err != nil {
			return nil, nil, &BindError{Pos: sel.p, Msg: err.Error()}
		}
		keys := make([]string, len(sel.OrderBy))
		desc := make([]bool, len(sel.OrderBy))
		for i, k := range sel.OrderBy {
			if finalSch.IndexOf(k.Col) < 0 {
				return nil, nil, &BindError{Pos: k.p, Msg: fmt.Sprintf("ORDER BY column %q is not in the select list", k.Col)}
			}
			keys[i] = k.Col
			desc[i] = k.Desc
		}
		root = algebra.NewOrderBy(root, keys, desc, sel.Limit)
	} else {
		if sel.Limit > 0 {
			return nil, nil, &BindError{Pos: sel.p, Msg: "LIMIT requires ORDER BY"}
		}
		if _, err := root.Schema(); err != nil {
			return nil, nil, &BindError{Pos: sel.p, Msg: err.Error()}
		}
	}
	return root, outNames, nil
}

func (b *binder) buildFrom(tr tableRef) (*fromNode, []*leafRel, error) {
	switch x := tr.(type) {
	case *baseTable:
		t, err := b.cat.Get(x.Name)
		if err != nil {
			return nil, nil, &BindError{Pos: x.p, Msg: fmt.Sprintf("unknown table %q", x.Name)}
		}
		leaf := &leafRel{alias: x.Alias, node: algebra.NewScan(t), sch: t.Schema}
		return &fromNode{p: x.p, leaf: leaf}, []*leafRel{leaf}, nil
	case *derivedTable:
		node, _, err := b.bindSelect(x.Sel, false)
		if err != nil {
			return nil, nil, err
		}
		sch, err := node.Schema()
		if err != nil {
			return nil, nil, &BindError{Pos: x.p, Msg: err.Error()}
		}
		leaf := &leafRel{alias: x.Alias, node: node, sch: sch}
		return &fromNode{p: x.p, leaf: leaf}, []*leafRel{leaf}, nil
	case *joinExpr:
		l, ll, err := b.buildFrom(x.L)
		if err != nil {
			return nil, nil, err
		}
		r, rl, err := b.buildFrom(x.R)
		if err != nil {
			return nil, nil, err
		}
		return &fromNode{p: x.p, l: l, r: r, outer: x.Outer, on: x.On}, append(ll, rl...), nil
	}
	return nil, nil, &BindError{Pos: tr.tpos(), Msg: "unsupported FROM clause"}
}

// processJoins splits every join's ON clause: column equalities across the
// two sides become hash-join keys, side-local conjuncts are pushed into that
// side, and anything else stays as a residual filter above the (inner) join.
func (b *binder) processJoins(n *fromNode, ctx *exprCtx) error {
	if n.leaf != nil {
		return nil
	}
	if err := b.processJoins(n.l, ctx); err != nil {
		return err
	}
	if err := b.processJoins(n.r, ctx); err != nil {
		return err
	}
	lSch := concatLeafSchemas(n.l)
	rSch := concatLeafSchemas(n.r)
	for _, c := range splitAnd(n.on) {
		if eq, ok := c.(*cmpExpr); ok && eq.Op == "=" {
			lc, lok := eq.L.(*colRef)
			rc, rok := eq.R.(*colRef)
			if lok && rok {
				if err := b.resolveCol(lc, ctx); err != nil {
					return err
				}
				if err := b.resolveCol(rc, ctx); err != nil {
					return err
				}
				switch {
				case lSch.IndexOf(lc.Name) >= 0 && rSch.IndexOf(rc.Name) >= 0:
					n.lKeys = append(n.lKeys, lc.Name)
					n.rKeys = append(n.rKeys, rc.Name)
					continue
				case lSch.IndexOf(rc.Name) >= 0 && rSch.IndexOf(lc.Name) >= 0:
					n.lKeys = append(n.lKeys, rc.Name)
					n.rKeys = append(n.rKeys, lc.Name)
					continue
				}
				// Both columns on the same side: fall through to pushdown.
			}
		}
		cols := refNames(c, nil)
		conv, err := b.convert(c, ctx)
		if err != nil {
			return err
		}
		switch {
		case allInSchema(lSch, cols):
			if leaf := findLeaf(n.l, cols); leaf != nil {
				leaf.filters = append(leaf.filters, conv)
			} else {
				n.l.pending = append(n.l.pending, conv)
			}
		case allInSchema(rSch, cols):
			if leaf := findLeaf(n.r, cols); leaf != nil {
				leaf.filters = append(leaf.filters, conv)
			} else {
				n.r.pending = append(n.r.pending, conv)
			}
		case n.outer:
			return &BindError{Pos: c.pos(), Msg: "LEFT JOIN conditions must be key equalities or single-side predicates"}
		default:
			n.residual = append(n.residual, conv)
		}
	}
	if len(n.lKeys) == 0 {
		return &BindError{Pos: n.p, Msg: "join requires at least one column equality in ON"}
	}
	return nil
}

// realize turns the processed join tree into algebra nodes, bottom-up. For an
// inner join the left operand is the hash-table build side; for LEFT [OUTER]
// JOIN the left operand is the outer (probe) side and the right is built.
// Build columns are over-declared from the statement-wide referenced-name
// set; lowering prunes them to what operators above actually consume.
func (b *binder) realize(n *fromNode, refs map[string]bool, counted map[string]string) (algebra.Node, error) {
	if n.leaf != nil {
		node := n.leaf.node
		if len(n.leaf.filters) > 0 {
			node = algebra.NewFilter(node, algebra.And(n.leaf.filters...))
		}
		return node, nil
	}
	l, err := b.realize(n.l, refs, counted)
	if err != nil {
		return nil, err
	}
	r, err := b.realize(n.r, refs, counted)
	if err != nil {
		return nil, err
	}
	var build, probe algebra.Node
	var bKeys, pKeys []string
	mode := ir.InnerJoin
	if n.outer {
		mode = ir.LeftOuterJoin
		probe, build = l, r
		pKeys, bKeys = n.lKeys, n.rKeys
	} else {
		build, probe = l, r
		bKeys, pKeys = n.lKeys, n.rKeys
	}
	bSch, err := build.Schema()
	if err != nil {
		return nil, &BindError{Pos: n.p, Msg: err.Error()}
	}
	keySet := make(map[string]bool, len(bKeys))
	for _, k := range bKeys {
		keySet[k] = true
	}
	var buildCols []string
	for _, c := range bSch {
		if refs[c.Name] && !keySet[c.Name] {
			buildCols = append(buildCols, c.Name)
		}
	}
	j := &algebra.HashJoin{
		Build: build, Probe: probe,
		BuildKeys: bKeys, ProbeKeys: pKeys,
		BuildCols: buildCols, Mode: mode,
	}
	if mode == ir.LeftOuterJoin {
		// COUNT over a column supplied by the nullable build side counts
		// matched rows only: expose the join's match marker for it.
		for name, marker := range counted {
			if marker == "" && bSch.IndexOf(name) >= 0 {
				if j.MatchedAs == "" {
					j.MatchedAs = fmt.Sprintf("__matched%d", b.synthM)
					b.synthM++
				}
				counted[name] = j.MatchedAs
			}
		}
	}
	var out algebra.Node = j
	if len(n.residual) > 0 {
		out = algebra.NewFilter(out, algebra.And(n.residual...))
	}
	if len(n.pending) > 0 {
		out = algebra.NewFilter(out, algebra.And(n.pending...))
	}
	if _, err := out.Schema(); err != nil {
		return nil, &BindError{Pos: n.p, Msg: err.Error()}
	}
	return out, nil
}

// bindExists wraps the plan in a semi join (anti join for NOT EXISTS) built
// from the subquery. The subquery must scan a single table; its WHERE splits
// into local filters and the correlated equalities that become join keys.
func (b *binder) bindExists(ex *existsExpr, outer *exprCtx, root algebra.Node) (algebra.Node, error) {
	sub := ex.Sel
	bt, ok := sub.From.(*baseTable)
	if !ok {
		return nil, &BindError{Pos: ex.p, Msg: "EXISTS subquery must select from a single table"}
	}
	if len(sub.GroupBy) > 0 || len(sub.OrderBy) > 0 || sub.Limit > 0 {
		return nil, &BindError{Pos: ex.p, Msg: "EXISTS subquery cannot aggregate, order, or limit"}
	}
	t, err := b.cat.Get(bt.Name)
	if err != nil {
		return nil, &BindError{Pos: bt.p, Msg: fmt.Sprintf("unknown table %q", bt.Name)}
	}
	innerSch := t.Schema
	innerCtx := &exprCtx{sch: innerSch, rels: map[string]types.Schema{bt.Alias: innerSch}}

	var filters []algebra.Expr
	var bKeys, pKeys []string
	if sub.Where != nil {
		for _, c := range splitAnd(sub.Where) {
			if eq, ok := c.(*cmpExpr); ok && eq.Op == "=" {
				lc, lok := eq.L.(*colRef)
				rc, rok := eq.R.(*colRef)
				if lok && rok {
					innerL := innerSch.IndexOf(lc.Name) >= 0
					innerR := innerSch.IndexOf(rc.Name) >= 0
					switch {
					case innerL && !innerR && outer.sch.IndexOf(rc.Name) >= 0:
						bKeys = append(bKeys, lc.Name)
						pKeys = append(pKeys, rc.Name)
						continue
					case innerR && !innerL && outer.sch.IndexOf(lc.Name) >= 0:
						bKeys = append(bKeys, rc.Name)
						pKeys = append(pKeys, lc.Name)
						continue
					}
				}
			}
			cols := refNames(c, nil)
			if !allInSchema(innerSch, cols) {
				return nil, &BindError{Pos: c.pos(), Msg: "correlated predicates must be equalities against one outer column"}
			}
			conv, err := b.convert(c, innerCtx)
			if err != nil {
				return nil, err
			}
			filters = append(filters, conv)
		}
	}
	if len(bKeys) == 0 {
		return nil, &BindError{Pos: ex.p, Msg: "EXISTS subquery requires a correlated column equality"}
	}
	var buildNode algebra.Node = algebra.NewScan(t)
	if len(filters) > 0 {
		buildNode = algebra.NewFilter(buildNode, algebra.And(filters...))
	}
	mode := ir.SemiJoin
	if ex.Negate {
		mode = ir.AntiJoin
	}
	j := &algebra.HashJoin{Build: buildNode, Probe: root, BuildKeys: bKeys, ProbeKeys: pKeys, Mode: mode}
	if _, err := j.Schema(); err != nil {
		return nil, &BindError{Pos: ex.p, Msg: err.Error()}
	}
	return j, nil
}

// bindItems lowers the select list: plain projection when no aggregation is
// involved, otherwise the pre-aggregate Map / GroupBy / post-aggregate Map /
// Project stack.
func (b *binder) bindItems(sel *selectStmt, root algebra.Node, rels map[string]types.Schema, counted map[string]string) (algebra.Node, []string, error) {
	rootSch, err := root.Schema()
	if err != nil {
		return nil, nil, &BindError{Pos: sel.p, Msg: err.Error()}
	}
	ctx := &exprCtx{sch: rootSch, rels: rels}

	itemCalls := make([][]*callExpr, len(sel.Items))
	hasAgg := false
	for i, it := range sel.Items {
		calls, err := collectAggCalls(it.E, nil)
		if err != nil {
			return nil, nil, err
		}
		itemCalls[i] = calls
		hasAgg = hasAgg || len(calls) > 0
	}

	if !hasAgg && len(sel.GroupBy) == 0 {
		var maps []algebra.NamedExpr
		var outNames []string
		for _, it := range sel.Items {
			if cr, ok := it.E.(*colRef); ok && (it.Alias == "" || it.Alias == cr.Name) {
				if err := b.resolveCol(cr, ctx); err != nil {
					return nil, nil, err
				}
				outNames = append(outNames, cr.Name)
				continue
			}
			if it.Alias == "" {
				return nil, nil, &BindError{Pos: it.p, Msg: "select expression requires an AS alias"}
			}
			e, err := b.convert(it.E, ctx)
			if err != nil {
				return nil, nil, err
			}
			maps = append(maps, algebra.NamedExpr{As: it.Alias, E: e})
			outNames = append(outNames, it.Alias)
		}
		if len(maps) > 0 {
			root = algebra.NewMap(root, maps...)
		}
		return algebra.NewProject(root, outNames...), outNames, nil
	}

	groupKeys := make([]string, len(sel.GroupBy))
	keySet := make(map[string]bool, len(sel.GroupBy))
	for i := range sel.GroupBy {
		gk := sel.GroupBy[i]
		if err := b.resolveCol(&gk, ctx); err != nil {
			return nil, nil, err
		}
		groupKeys[i] = gk.Name
		keySet[gk.Name] = true
	}

	var preMaps []algebra.NamedExpr
	var specs []algebra.AggSpec
	aggName := make(map[*callExpr]string)
	var outNames []string
	type postItem struct {
		name string
		e    expr
	}
	var posts []postItem
	for i, it := range sel.Items {
		calls := itemCalls[i]
		if len(calls) == 0 {
			cr, ok := it.E.(*colRef)
			if !ok {
				return nil, nil, &BindError{Pos: it.p, Msg: "non-aggregate select item must be a group key column"}
			}
			if !keySet[cr.Name] {
				return nil, nil, &BindError{Pos: it.p, Msg: fmt.Sprintf("column %q must appear in GROUP BY", cr.Name)}
			}
			if it.Alias != "" && it.Alias != cr.Name {
				return nil, nil, &BindError{Pos: it.p, Msg: "renaming a group key is not supported"}
			}
			outNames = append(outNames, cr.Name)
			continue
		}
		if it.Alias == "" {
			return nil, nil, &BindError{Pos: it.p, Msg: "aggregate select item requires an AS alias"}
		}
		_, whole := it.E.(*callExpr)
		for _, c := range calls {
			an := it.Alias
			if !whole {
				an = fmt.Sprintf("__s%d", b.synthS)
				b.synthS++
			}
			aggName[c] = an
			spec, err := b.aggSpec(c, an, ctx, counted, &preMaps)
			if err != nil {
				return nil, nil, err
			}
			specs = append(specs, spec)
		}
		if !whole {
			posts = append(posts, postItem{name: it.Alias, e: it.E})
		}
		outNames = append(outNames, it.Alias)
	}

	if len(preMaps) > 0 {
		root = algebra.NewMap(root, preMaps...)
	}
	gb := algebra.NewGroupBy(root, groupKeys, specs...)
	root = gb
	if len(posts) > 0 {
		gbSch, err := gb.Schema()
		if err != nil {
			return nil, nil, &BindError{Pos: sel.p, Msg: err.Error()}
		}
		postCtx := &exprCtx{sch: gbSch, agg: aggName}
		var postMaps []algebra.NamedExpr
		for _, pi := range posts {
			e, err := b.convert(pi.e, postCtx)
			if err != nil {
				return nil, nil, err
			}
			postMaps = append(postMaps, algebra.NamedExpr{As: pi.name, E: e})
		}
		root = algebra.NewMap(root, postMaps...)
	}
	return algebra.NewProject(root, outNames...), outNames, nil
}

// aggSpec maps one aggregate call to an AggSpec, synthesizing a pre-aggregate
// map column when the argument is an expression.
func (b *binder) aggSpec(c *callExpr, outName string, ctx *exprCtx, counted map[string]string, preMaps *[]algebra.NamedExpr) (algebra.AggSpec, error) {
	if c.Star {
		return algebra.Count(outName), nil
	}
	col := ""
	if cr, ok := c.Arg.(*colRef); ok {
		if err := b.resolveCol(cr, ctx); err != nil {
			return algebra.AggSpec{}, err
		}
		col = cr.Name
	} else {
		if c.Fn == "count" {
			return algebra.AggSpec{}, &BindError{Pos: c.p, Msg: "count over expressions is not supported (use count(*) or count(column))"}
		}
		name := fmt.Sprintf("__a%d", b.synthA)
		b.synthA++
		e, err := b.convert(c.Arg, ctx)
		if err != nil {
			return algebra.AggSpec{}, err
		}
		*preMaps = append(*preMaps, algebra.NamedExpr{As: name, E: e})
		col = name
	}
	switch c.Fn {
	case "sum":
		return algebra.Sum(col, outName), nil
	case "avg":
		return algebra.Avg(col, outName), nil
	case "min":
		return algebra.MinOf(col, outName), nil
	case "max":
		return algebra.MaxOf(col, outName), nil
	case "count":
		if marker := counted[col]; marker != "" {
			return algebra.CountIf(marker, outName), nil
		}
		return algebra.Count(outName), nil
	}
	return algebra.AggSpec{}, &BindError{Pos: c.p, Msg: fmt.Sprintf("unknown aggregate %q", c.Fn)}
}

// --- expression conversion -------------------------------------------------

func (b *binder) convert(e expr, ctx *exprCtx) (algebra.Expr, error) {
	switch x := e.(type) {
	case *colRef:
		if err := b.resolveCol(x, ctx); err != nil {
			return nil, err
		}
		return algebra.Col(x.Name), nil
	case *numLit, *strLit, *dateLit, *placeholder:
		return nil, &BindError{Pos: e.pos(), Msg: "literal needs a typed context (compare or combine it with a column)"}
	case *binExpr:
		l, r, err := b.pair(x.L, x.R, ctx, "arithmetic", x.p, true)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return algebra.Add(l, r), nil
		case "-":
			return algebra.Sub(l, r), nil
		case "*":
			return algebra.Mul(l, r), nil
		default:
			return algebra.Div(l, r), nil
		}
	case *cmpExpr:
		l, r, err := b.pair(x.L, x.R, ctx, "comparison", x.p, true)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "=":
			return algebra.Eq(l, r), nil
		case "<>":
			return algebra.Ne(l, r), nil
		case "<":
			return algebra.Lt(l, r), nil
		case "<=":
			return algebra.Le(l, r), nil
		case ">":
			return algebra.Gt(l, r), nil
		default:
			return algebra.Ge(l, r), nil
		}
	case *logicExpr:
		l, err := b.convert(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := b.convert(x.R, ctx)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" {
			return algebra.And(l, r), nil
		}
		return algebra.Or(l, r), nil
	case *notExpr:
		inner, err := b.convert(x.E, ctx)
		if err != nil {
			return nil, err
		}
		return algebra.Not(inner), nil
	case *betweenExpr:
		ee, err := b.convert(x.E, ctx)
		if err != nil {
			return nil, err
		}
		k, err := b.kindOf(ee, ctx, x.p)
		if err != nil {
			return nil, err
		}
		lo, err := b.operand(x.Lo, ctx, k)
		if err != nil {
			return nil, err
		}
		hi, err := b.operand(x.Hi, ctx, k)
		if err != nil {
			return nil, err
		}
		return algebra.Between(ee, lo, hi), nil
	case *likeExpr:
		ee, err := b.convert(x.E, ctx)
		if err != nil {
			return nil, err
		}
		out := algebra.LikeE{E: ee, Negate: x.Negate}
		switch pt := x.Pattern.(type) {
		case *strLit:
			out.Pattern = pt.Val
			out.Ref = b.nextRef(Arg{Kind: types.String, IsLike: true, Pattern: pt.Val, FromParam: -1})
		case *placeholder:
			if err := b.placeholderKind(pt, types.String); err != nil {
				return nil, err
			}
			out.Ref = b.nextRef(Arg{Kind: types.String, IsLike: true, FromParam: pt.N})
		default:
			return nil, &BindError{Pos: x.p, Msg: "LIKE pattern must be a string literal or ?"}
		}
		return out, nil
	case *inExpr:
		ee, err := b.convert(x.E, ctx)
		if err != nil {
			return nil, err
		}
		ref := b.nextRef(Arg{Kind: types.String, IsList: true, List: x.Members, FromParam: -1})
		var out algebra.Expr = algebra.InListE{E: ee, Members: x.Members, Ref: ref}
		if x.Negate {
			out = algebra.Not(out)
		}
		return out, nil
	case *caseExpr:
		cond, err := b.convert(x.Cond, ctx)
		if err != nil {
			return nil, err
		}
		if isLiteral(x.Then) && isLiteral(x.Else) {
			then, els, err := b.literalArms(x)
			if err != nil {
				return nil, err
			}
			return algebra.Case(cond, then, els), nil
		}
		then, els, err := b.pair(x.Then, x.Else, ctx, "CASE arms", x.p, false)
		if err != nil {
			return nil, err
		}
		return algebra.Case(cond, then, els), nil
	case *existsExpr:
		return nil, &BindError{Pos: x.p, Msg: "EXISTS is only supported as a top-level WHERE conjunct"}
	case *callExpr:
		if ctx.agg != nil {
			if name, ok := ctx.agg[x]; ok {
				return algebra.Col(name), nil
			}
		}
		return nil, &BindError{Pos: x.p, Msg: "aggregate functions are only allowed in the select list"}
	}
	return nil, &BindError{Pos: e.pos(), Msg: "unsupported expression"}
}

// pair converts the operands of a binary construct, coercing an untyped
// literal side to the kind of the typed side. checkKinds additionally
// requires both kinds to agree (comparisons and arithmetic).
func (b *binder) pair(l, r expr, ctx *exprCtx, what string, p Position, checkKinds bool) (algebra.Expr, algebra.Expr, error) {
	lLit, rLit := isLiteral(l), isLiteral(r)
	if lLit && rLit {
		return nil, nil, &BindError{Pos: p, Msg: what + " over two literals is not supported"}
	}
	var le, re algebra.Expr
	var err error
	switch {
	case rLit:
		if le, err = b.convert(l, ctx); err != nil {
			return nil, nil, err
		}
		k, err := b.kindOf(le, ctx, p)
		if err != nil {
			return nil, nil, err
		}
		if re, err = b.literal(r, k); err != nil {
			return nil, nil, err
		}
	case lLit:
		if re, err = b.convert(r, ctx); err != nil {
			return nil, nil, err
		}
		k, err := b.kindOf(re, ctx, p)
		if err != nil {
			return nil, nil, err
		}
		if le, err = b.literal(l, k); err != nil {
			return nil, nil, err
		}
	default:
		if le, err = b.convert(l, ctx); err != nil {
			return nil, nil, err
		}
		if re, err = b.convert(r, ctx); err != nil {
			return nil, nil, err
		}
		if checkKinds {
			lk, err := b.kindOf(le, ctx, p)
			if err != nil {
				return nil, nil, err
			}
			rk, err := b.kindOf(re, ctx, p)
			if err != nil {
				return nil, nil, err
			}
			if lk != rk {
				return nil, nil, &BindError{Pos: p, Msg: fmt.Sprintf("%s kind mismatch: %v vs %v", what, lk, rk)}
			}
		}
	}
	return le, re, nil
}

// literalArms binds a CASE whose arms are both literals, such as the
// conditional count `case when ... then 1 else 0 end`. No column types the
// arms, so both take the first non-placeholder literal's own kind: integer
// Int64, decimal Float64, string String, date Date.
func (b *binder) literalArms(x *caseExpr) (algebra.Expr, algebra.Expr, error) {
	k := literalKind(x.Then)
	if k == types.Invalid {
		k = literalKind(x.Else)
	}
	if k == types.Invalid {
		return nil, nil, &BindError{Pos: x.p, Msg: "CASE arms over two placeholders are not supported"}
	}
	then, err := b.literal(x.Then, k)
	if err != nil {
		return nil, nil, err
	}
	els, err := b.literal(x.Else, k)
	if err != nil {
		return nil, nil, err
	}
	return then, els, nil
}

// literalKind is the kind a literal takes on its own (Invalid for a
// placeholder, which has none).
func literalKind(e expr) types.Kind {
	switch x := e.(type) {
	case *numLit:
		if x.IsFloat {
			return types.Float64
		}
		return types.Int64
	case *strLit:
		return types.String
	case *dateLit:
		return types.Date
	}
	return types.Invalid
}

// operand converts a sub-expression that may be an untyped literal, coercing
// it to want.
func (b *binder) operand(e expr, ctx *exprCtx, want types.Kind) (algebra.Expr, error) {
	if isLiteral(e) {
		return b.literal(e, want)
	}
	return b.convert(e, ctx)
}

func (b *binder) kindOf(e algebra.Expr, ctx *exprCtx, p Position) (types.Kind, error) {
	k, err := e.Kind(ctx.sch)
	if err != nil {
		return types.Invalid, &BindError{Pos: p, Msg: err.Error()}
	}
	return k, nil
}

// literal materializes a literal AST node as a ref-tagged constant of the
// wanted kind and records its Arg.
func (b *binder) literal(e expr, want types.Kind) (algebra.Expr, error) {
	if ph, ok := e.(*placeholder); ok {
		if err := b.placeholderKind(ph, want); err != nil {
			return nil, err
		}
		c := algebra.Const{K: want}
		c.Ref = b.nextRef(Arg{Kind: want, FromParam: ph.N})
		return c, nil
	}
	c, err := constOf(e, want)
	if err != nil {
		return nil, err
	}
	c.Ref = b.nextRef(Arg{Kind: want, Const: c, FromParam: -1})
	return c, nil
}

func (b *binder) placeholderKind(ph *placeholder, want types.Kind) error {
	if ph.N >= len(b.paramKinds) {
		return &BindError{Pos: ph.p, Msg: "placeholder out of range"}
	}
	if k := b.paramKinds[ph.N]; k != types.Invalid && k != want {
		return &BindError{Pos: ph.p, Msg: fmt.Sprintf("parameter %d bound as both %v and %v", ph.N+1, k, want)}
	}
	b.paramKinds[ph.N] = want
	return nil
}

// constOf evaluates a literal node to a constant of the wanted kind (no ref).
func constOf(e expr, want types.Kind) (algebra.Const, error) {
	fail := func(p Position, format string, args ...any) (algebra.Const, error) {
		return algebra.Const{}, &BindError{Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
	switch x := e.(type) {
	case *numLit:
		text := x.Text
		if x.Neg {
			text = "-" + text
		}
		switch want {
		case types.Int32:
			if x.IsFloat {
				return fail(x.p, "non-integer literal %q for an int32 column", text)
			}
			v, err := strconv.ParseInt(text, 10, 32)
			if err != nil {
				return fail(x.p, "bad int32 literal %q", text)
			}
			return algebra.I32(int32(v)), nil
		case types.Int64:
			if x.IsFloat {
				return fail(x.p, "non-integer literal %q for an int64 column", text)
			}
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return fail(x.p, "bad int64 literal %q", text)
			}
			return algebra.I64(v), nil
		case types.Float64:
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return fail(x.p, "bad float literal %q", text)
			}
			return algebra.F64(v), nil
		default:
			return fail(x.p, "numeric literal %q where %v is required", text, want)
		}
	case *strLit:
		switch want {
		case types.String:
			return algebra.Str(x.Val), nil
		case types.Date:
			d, err := types.ParseDate(x.Val)
			if err != nil {
				return fail(x.p, "bad date literal %q (want YYYY-MM-DD)", x.Val)
			}
			return algebra.Const{K: types.Date, I32: d}, nil
		default:
			return fail(x.p, "string literal where %v is required", want)
		}
	case *dateLit:
		if want != types.Date {
			return fail(x.p, "date literal where %v is required", want)
		}
		d, err := types.ParseDate(x.Val)
		if err != nil {
			return fail(x.p, "bad date literal %q (want YYYY-MM-DD)", x.Val)
		}
		return algebra.Const{K: types.Date, I32: d}, nil
	}
	return algebra.Const{}, &BindError{Pos: e.pos(), Msg: "expected a literal"}
}

func (b *binder) resolveCol(c *colRef, ctx *exprCtx) error {
	if c.Table != "" {
		if ctx.rels == nil {
			return &BindError{Pos: c.p, Msg: fmt.Sprintf("qualified column %s.%s is not allowed here", c.Table, c.Name)}
		}
		sch, ok := ctx.rels[c.Table]
		if !ok {
			return &BindError{Pos: c.p, Msg: fmt.Sprintf("unknown table alias %q", c.Table)}
		}
		if sch.IndexOf(c.Name) < 0 {
			return &BindError{Pos: c.p, Msg: fmt.Sprintf("table %q has no column %q", c.Table, c.Name)}
		}
		return nil
	}
	if ctx.sch.IndexOf(c.Name) < 0 {
		return &BindError{Pos: c.p, Msg: fmt.Sprintf("unknown column %q", c.Name)}
	}
	return nil
}

// --- AST helpers -----------------------------------------------------------

func isLiteral(e expr) bool {
	switch e.(type) {
	case *numLit, *strLit, *dateLit, *placeholder:
		return true
	}
	return false
}

func splitAnd(e expr) []expr {
	if l, ok := e.(*logicExpr); ok && l.Op == "AND" {
		return append(splitAnd(l.L), splitAnd(l.R)...)
	}
	return []expr{e}
}

// refNames collects the column names referenced by e, not descending into
// subqueries.
func refNames(e expr, dst []string) []string {
	switch x := e.(type) {
	case *colRef:
		return append(dst, x.Name)
	case *binExpr:
		return refNames(x.R, refNames(x.L, dst))
	case *cmpExpr:
		return refNames(x.R, refNames(x.L, dst))
	case *logicExpr:
		return refNames(x.R, refNames(x.L, dst))
	case *notExpr:
		return refNames(x.E, dst)
	case *betweenExpr:
		return refNames(x.Hi, refNames(x.Lo, refNames(x.E, dst)))
	case *likeExpr:
		return refNames(x.E, dst)
	case *inExpr:
		return refNames(x.E, dst)
	case *caseExpr:
		return refNames(x.Else, refNames(x.Then, refNames(x.Cond, dst)))
	case *callExpr:
		if x.Arg != nil {
			return refNames(x.Arg, dst)
		}
	}
	return dst
}

// collectRefs gathers every column name the statement references anywhere —
// select list, WHERE (including EXISTS subquery predicates, whose correlated
// names must survive as join keys), ON clauses, GROUP BY, ORDER BY. Derived
// tables are bound separately and excluded. The set over-approximates what
// each join must carry; lowering prunes the rest.
func collectRefs(sel *selectStmt) map[string]bool {
	set := make(map[string]bool)
	var walk func(e expr)
	walk = func(e expr) {
		if e == nil {
			return
		}
		if ex, ok := e.(*existsExpr); ok {
			if ex.Sel.Where != nil {
				walk(ex.Sel.Where)
			}
			return
		}
		for _, n := range refNames(e, nil) {
			set[n] = true
		}
		// refNames does not descend into EXISTS; split conjunctions to reach
		// nested ones.
		switch x := e.(type) {
		case *logicExpr:
			walk(x.L)
			walk(x.R)
		case *notExpr:
			walk(x.E)
		}
	}
	var walkT func(t tableRef)
	walkT = func(t tableRef) {
		if j, ok := t.(*joinExpr); ok {
			walkT(j.L)
			walkT(j.R)
			walk(j.On)
		}
	}
	for _, it := range sel.Items {
		walk(it.E)
	}
	walk(sel.Where)
	walkT(sel.From)
	for _, g := range sel.GroupBy {
		set[g.Name] = true
	}
	for _, o := range sel.OrderBy {
		set[o.Col] = true
	}
	return set
}

// scanCounted finds count(column) calls in the select list; realize fills in
// the outer-join match marker for columns served by a nullable build side.
func scanCounted(items []selectItem) map[string]string {
	m := make(map[string]string)
	var walk func(e expr)
	walk = func(e expr) {
		switch x := e.(type) {
		case *callExpr:
			if x.Fn == "count" && !x.Star {
				if cr, ok := x.Arg.(*colRef); ok {
					m[cr.Name] = ""
				}
			}
		case *binExpr:
			walk(x.L)
			walk(x.R)
		case *caseExpr:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		}
	}
	for _, it := range items {
		walk(it.E)
	}
	return m
}

// collectAggCalls lists the aggregate calls in e, rejecting nesting.
func collectAggCalls(e expr, dst []*callExpr) ([]*callExpr, error) {
	switch x := e.(type) {
	case *callExpr:
		if x.Arg != nil {
			inner, err := collectAggCalls(x.Arg, nil)
			if err != nil {
				return nil, err
			}
			if len(inner) > 0 {
				return nil, &BindError{Pos: x.p, Msg: "nested aggregate functions are not supported"}
			}
		}
		return append(dst, x), nil
	case *binExpr:
		dst, err := collectAggCalls(x.L, dst)
		if err != nil {
			return nil, err
		}
		return collectAggCalls(x.R, dst)
	case *cmpExpr:
		dst, err := collectAggCalls(x.L, dst)
		if err != nil {
			return nil, err
		}
		return collectAggCalls(x.R, dst)
	case *logicExpr:
		dst, err := collectAggCalls(x.L, dst)
		if err != nil {
			return nil, err
		}
		return collectAggCalls(x.R, dst)
	case *notExpr:
		return collectAggCalls(x.E, dst)
	case *betweenExpr:
		dst, err := collectAggCalls(x.E, dst)
		if err != nil {
			return nil, err
		}
		dst, err = collectAggCalls(x.Lo, dst)
		if err != nil {
			return nil, err
		}
		return collectAggCalls(x.Hi, dst)
	case *likeExpr:
		return collectAggCalls(x.E, dst)
	case *inExpr:
		return collectAggCalls(x.E, dst)
	case *caseExpr:
		dst, err := collectAggCalls(x.Cond, dst)
		if err != nil {
			return nil, err
		}
		dst, err = collectAggCalls(x.Then, dst)
		if err != nil {
			return nil, err
		}
		return collectAggCalls(x.Else, dst)
	}
	return dst, nil
}

func findLeaf(t *fromNode, cols []string) *leafRel {
	var leaves []*leafRel
	var collect func(n *fromNode)
	collect = func(n *fromNode) {
		if n.leaf != nil {
			leaves = append(leaves, n.leaf)
			return
		}
		collect(n.l)
		collect(n.r)
	}
	collect(t)
	for _, lf := range leaves {
		if allInSchema(lf.sch, cols) {
			return lf
		}
	}
	return nil
}

func concatLeafSchemas(t *fromNode) types.Schema {
	if t.leaf != nil {
		return t.leaf.sch
	}
	return append(append(types.Schema{}, concatLeafSchemas(t.l)...), concatLeafSchemas(t.r)...)
}

func allInSchema(s types.Schema, cols []string) bool {
	for _, c := range cols {
		if s.IndexOf(c) < 0 {
			return false
		}
	}
	return true
}
