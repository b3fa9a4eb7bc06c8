package stats

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestAddMergesAllFields(t *testing.T) {
	a := Counters{
		Tuples: 1, VMOps: 2, MaterializedBytes: 3, PrimitiveCalls: 4,
		FusedCalls: 5, HTProbes: 6, HTMatches: 7, HTInserts: 8,
		EmittedRows: 9, MorselsVectorized: 10, MorselsCompiled: 11,
		CompileWait: time.Second, CompileTime: 2 * time.Second,
		CompileErrors: 12, PanicsRecovered: 13, MemPeakBytes: 14,
	}
	b := a
	b.MemPeakBytes = 99 // peak merges by max, not sum
	a.Add(&b)
	if a.Tuples != 2 || a.VMOps != 4 || a.MaterializedBytes != 6 ||
		a.PrimitiveCalls != 8 || a.FusedCalls != 10 || a.HTProbes != 12 ||
		a.HTMatches != 14 || a.HTInserts != 16 || a.EmittedRows != 18 ||
		a.MorselsVectorized != 20 || a.MorselsCompiled != 22 ||
		a.CompileWait != 2*time.Second || a.CompileTime != 4*time.Second ||
		a.CompileErrors != 24 || a.PanicsRecovered != 26 || a.MemPeakBytes != 99 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestPerTuple(t *testing.T) {
	c := Counters{Tuples: 4, VMOps: 10}
	if c.PerTuple(c.VMOps) != "2.50" {
		t.Fatalf("per tuple = %s", c.PerTuple(c.VMOps))
	}
	var zero Counters
	if zero.PerTuple(1) != "n/a" {
		t.Fatal("zero tuples should report n/a")
	}
}

// TestFieldsCoverCounters: the schema declares every Counters field exactly
// once, in struct order, with a unique snake-case name and some help text.
func TestFieldsCoverCounters(t *testing.T) {
	var c Counters
	typ := reflect.TypeOf(c)
	if len(Fields) != typ.NumField() {
		t.Fatalf("schema has %d entries, Counters has %d fields", len(Fields), typ.NumField())
	}
	base := uintptr(unsafe.Pointer(&c))
	names := map[string]bool{}
	for i := range Fields {
		f := &Fields[i]
		sf := typ.Field(i)
		if off := uintptr(unsafe.Pointer(f.Get(&c))) - base; off != sf.Offset {
			t.Errorf("entry %d (%s) points at offset %d, want %s at %d", i, f.Name, off, sf.Name, sf.Offset)
		}
		if names[f.Name] || f.Help == "" || f.Unit == "" || strings.ToLower(f.Name) != f.Name {
			t.Errorf("entry %s: duplicate name, or missing help/unit, or not snake case", f.Name)
		}
		names[f.Name] = true
		if (sf.Type == reflect.TypeOf(time.Duration(0))) != (f.Unit == "ns") {
			t.Errorf("entry %s: durations and only durations carry unit ns", f.Name)
		}
	}
}

func TestAddSinceAndLine(t *testing.T) {
	before := Counters{Tuples: 10, HTSpills: 1, MemPeakBytes: 5}
	now := Counters{Tuples: 25, HTSpills: 1, HTBloomSkips: 3, MemPeakBytes: 7}
	var d Counters
	d.AddSince(&now, &before)
	if d.Tuples != 15 || d.HTSpills != 0 || d.HTBloomSkips != 3 || d.MemPeakBytes != 7 {
		t.Fatalf("delta wrong: %+v", d)
	}
	if got, want := d.Line(Tables), "local_hits=0 spills=0 bloom_skips=3"; got != want {
		t.Fatalf("tables line = %q, want %q", got, want)
	}
	if got := (&Counters{Tuples: 1}).Line(Tables); got != "" {
		t.Fatalf("all-zero line = %q, want empty", got)
	}
}
