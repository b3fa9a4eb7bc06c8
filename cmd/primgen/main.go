// Command primgen materializes the engine's generated vectorized
// interpreter: it enumerates every suboperator instantiation, runs each
// through the compilation stack wrapped between a tuple-buffer source and
// sink, and emits the resulting primitives as C source — the artifact
// InkFuse compiles at build time (the paper reports 20 suboperators → 800+
// primitives → ~20k lines of generated C; run `primgen -stats` for this
// implementation's numbers).
//
//	primgen -stats          # counts only
//	primgen > interp.c      # the full generated interpreter, prelude first
//	primgen -id cmp_lt_f64_ck   # one primitive (no prelude)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"inkfuse/internal/core"
	"inkfuse/internal/interp"
	"inkfuse/internal/ir"
)

func main() {
	statsOnly := flag.Bool("stats", false, "print enumeration statistics only")
	one := flag.String("id", "", "emit a single primitive by ID")
	flag.Parse()

	reg, err := interp.NewRegistry()
	if err != nil {
		fmt.Fprintln(os.Stderr, "primgen:", err)
		os.Exit(1)
	}
	ids := reg.IDs()
	sort.Strings(ids)

	if *one != "" {
		f, ok := reg.Func(*one)
		if !ok {
			fmt.Fprintf(os.Stderr, "primgen: no primitive %q\n", *one)
			os.Exit(1)
		}
		fmt.Print(ir.EmitC(f))
		return
	}

	if *statsOnly {
		families := map[string]int{}
		lines := 0
		for _, id := range ids {
			fam := id
			if i := strings.IndexByte(id, '_'); i > 0 {
				fam = id[:i]
			}
			families[fam]++
			f, _ := reg.Func(id)
			lines += strings.Count(ir.EmitC(f), "\n")
		}
		famNames := make([]string, 0, len(families))
		for f := range families {
			famNames = append(famNames, f)
		}
		sort.Strings(famNames)
		fmt.Printf("suboperator families: %d\n", len(famNames))
		fmt.Printf("suboperator prototypes enumerated: %d\n", len(core.Enumerate()))
		fmt.Printf("generated vectorized primitives: %d\n", reg.Len())
		fmt.Printf("generated interpreter size: %d lines of C\n", lines)
		for _, f := range famNames {
			fmt.Printf("  %-12s %4d primitives\n", f, families[f])
		}
		return
	}

	fmt.Print(reg.GenerateC())
}
