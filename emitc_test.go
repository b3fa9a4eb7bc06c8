package inkfuse

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"inkfuse/internal/interp"
	"inkfuse/internal/ir"
	"inkfuse/internal/tpch"
)

// emittedC returns every C source the engine emits, keyed by name: the
// generated vectorized interpreter (one function per primitive) and the
// fused pipelines of each lowered TPC-H plan. Each source begins with
// ir.EmitCPrelude.
func emittedC(t *testing.T) map[string]string {
	t.Helper()
	reg, err := interp.Default()
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"interpreter": reg.GenerateC()}
	cat := tpch.Generate(0.001, 7)
	for _, q := range append(append([]string{}, tpch.Queries...), tpch.ExtendedQueries...) {
		node, err := tpch.Build(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := GeneratedC(node, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		srcs[q] = c
	}
	return srcs
}

var (
	inkIdent    = regexp.MustCompile(`\bink_[a-z0-9_]+`)
	preludeDecl = regexp.MustCompile(`\b(ink_[a-z0-9_]+)(\(|;)`)
)

// TestEmitCPreludeAgreement checks, without a C compiler, that the prelude
// declares exactly the runtime interface the emitter uses: every ink_*
// identifier in the emitted code is declared, and every declaration is used
// by some emitted source.
func TestEmitCPreludeAgreement(t *testing.T) {
	prelude := ir.EmitCPrelude()
	declared := map[string]bool{}
	for _, m := range preludeDecl.FindAllStringSubmatch(prelude, -1) {
		declared[m[1]] = true
	}
	if len(declared) == 0 {
		t.Fatal("prelude declares nothing")
	}
	used := map[string]bool{}
	for name, src := range emittedC(t) {
		body, ok := strings.CutPrefix(src, prelude)
		if !ok {
			t.Fatalf("%s: emitted C does not begin with the prelude", name)
		}
		if strings.Contains(body, "#include") || strings.Contains(body, "typedef") {
			t.Errorf("%s: declarations outside the prelude", name)
		}
		for _, id := range inkIdent.FindAllString(body, -1) {
			if !declared[id] && !used[id] {
				t.Errorf("%s: %s is not declared in the prelude", name, id)
			}
			used[id] = true
		}
	}
	for id := range declared {
		if !used[id] {
			t.Errorf("prelude declares %s, which no emitted source uses", id)
		}
	}
}

// TestEmittedCCompiles compiles the checked-in interpreter artifact and the
// fused pipelines of every lowered TPC-H plan with the host C compiler.
// Implicit declarations, int conversions and incompatible pointers are
// errors: each would mean the emitter and the prelude disagree.
func TestEmittedCCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no cc on PATH")
	}
	artifact, err := os.ReadFile("artifacts/interpreter.c")
	if err != nil {
		t.Fatal(err)
	}
	srcs := emittedC(t)
	srcs["interpreter"] = string(artifact)
	dir := t.TempDir()
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			file := filepath.Join(dir, name+".c")
			if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(cc, "-std=c11", "-O2", "-c",
				"-Werror=implicit-function-declaration", "-Werror=int-conversion",
				"-Werror=incompatible-pointer-types",
				"-o", filepath.Join(dir, name+".o"), file).CombinedOutput()
			if err != nil {
				t.Fatalf("cc: %v\n%s", err, out)
			}
			if len(out) > 0 {
				t.Logf("cc diagnostics:\n%s", out)
			}
			t.Logf("%d functions", strings.Count(src, "// generated by the inkfuse compilation stack"))
		})
	}
}
