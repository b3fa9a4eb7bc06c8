package interp

import (
	"os"
	"testing"
)

// The generated-interpreter artifact checked into the repository
// (artifacts/interpreter.c) must stay in sync with what the compilation stack
// currently generates — the drift test regenerates it and compares
// byte-for-byte. Refresh it with:
//
//	go run ./cmd/primgen > artifacts/interpreter.c

func TestGeneratedCArtifactUpToDate(t *testing.T) {
	reg, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../artifacts/interpreter.c")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != reg.GenerateC() {
		t.Fatal("artifacts/interpreter.c is stale — regenerate with `go run ./cmd/primgen > artifacts/interpreter.c`")
	}
}
