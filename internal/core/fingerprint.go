package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"inkfuse/internal/rt"
)

// Fingerprint is a canonical 128-bit digest of a query shape. Two query
// trees with the same fingerprint lower to identical suboperator structure
// and differ at most in the values of parameterized runtime constants, so
// their plans can share compiled artifacts (the plancache contract).
type Fingerprint [16]byte

// Hex renders the fingerprint as 32 lowercase hex digits.
func (f Fingerprint) Hex() string { return hex.EncodeToString(f[:]) }

// String implements fmt.Stringer.
func (f Fingerprint) String() string { return f.Hex() }

// Hasher accumulates a canonical encoding into a Fingerprint. The algebra-tree
// fingerprint (the plancache key) builds on it; the encoding tags every field
// so adjacent writes cannot collide.
type Hasher struct {
	h   hash.Hash
	buf [10]byte
}

// NewHasher creates an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Int writes a varint.
func (h *Hasher) Int(v int) {
	n := binary.PutVarint(h.buf[:], int64(v))
	h.h.Write(h.buf[:n])
}

// Bool writes one byte.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Int(1)
	} else {
		h.Int(0)
	}
}

// Sum finalizes the digest (truncated to 128 bits).
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	copy(f[:], h.h.Sum(nil))
	return f
}

// ResetPlanState clears the per-execution mutable state baked into a lowered
// plan — sealed join tables, merged aggregate results, cardinality hints — so
// the plan (and any compiled artifacts referencing these state objects) can
// run again. Safe only once no execution references the plan.
func ResetPlanState(p *Plan) {
	seen := make(map[any]bool)
	resetOne := func(st any) {
		if st == nil || seen[st] {
			return
		}
		seen[st] = true
		switch s := st.(type) {
		case *rt.JoinTableState:
			s.Reset()
		case *rt.AggTableState:
			s.Reset()
		}
	}
	for _, pipe := range p.Pipelines {
		if ar, ok := pipe.Source.(*AggRead); ok {
			resetOne(ar.State)
		}
		for _, op := range pipe.Ops {
			for _, st := range op.States() {
				resetOne(st)
			}
		}
		for _, jt := range pipe.SealJoins {
			resetOne(jt)
		}
		for _, fin := range pipe.MergeAggs {
			resetOne(fin.State)
		}
	}
}
