package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDuplicateKeyKeepsFirstCell: an artifact with two cells under one
// query/backend key (like BENCH_PR10.json's second measurement axis) must
// diff against the first cell, not silently against the last.
func TestDuplicateKeyKeepsFirstCell(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	next := filepath.Join(dir, "next.json")
	write := func(path, body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(base, `{"sf": 0.1, "workers": 2, "runs": 3, "cells": [
		{"query": "q1", "backend": "hybrid", "wall_ms": 100, "rows": 4},
		{"query": "q3", "backend": "hybrid", "wall_ms": 50, "rows": 10},
		{"query": "q1", "backend": "hybrid", "wall_ms": 700, "rows": 4, "exchange": true}
	]}`)
	write(next, `{"sf": 0.1, "workers": 2, "runs": 3, "cells": [
		{"query": "q1", "backend": "hybrid", "wall_ms": 150, "rows": 4},
		{"query": "q3", "backend": "hybrid", "wall_ms": 50, "rows": 10}
	]}`)

	var out strings.Builder
	regressions, err := diff(&out, base, next, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1 (q1 against the first 100 ms cell)\n%s", regressions, got)
	}
	if !strings.Contains(got, "100.00     150.00    +50.0%  REGRESSION") {
		t.Errorf("q1 did not diff against the first baseline cell:\n%s", got)
	}
	if n := strings.Count(got, "duplicate"); n != 1 {
		t.Errorf("want exactly one duplicate note, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "base.json: ignored 1 duplicate") {
		t.Errorf("duplicate note does not name the artifact and count:\n%s", got)
	}
}
