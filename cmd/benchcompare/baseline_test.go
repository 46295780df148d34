package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBaselineRowsHaveLiveBenchmarks reads the baseline benchcompare
// would pick — the latest BENCH_*.json at the module root — and fails
// on a row whose top-level Benchmark function is declared in no
// _test.go of the row's package: a row nothing can re-measure is a
// number nobody can check, and `make bench-json` would silently drop it.
func TestBaselineRowsHaveLiveBenchmarks(t *testing.T) {
	root := filepath.Join("..", "..")
	matches, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no BENCH_*.json at the module root (glob error %v)", err)
	}
	latest := matches[len(matches)-1] // Glob returns sorted names
	doc, err := loadDoc(latest)
	if err != nil {
		t.Fatalf("%s: %v", latest, err)
	}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	declared := map[string]map[string]bool{} // pkg -> top-level benchmark names
	for _, row := range doc.Benchmarks {
		fns, ok := declared[row.Pkg]
		if !ok {
			fns = map[string]bool{}
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(row.Pkg, "sidq"), "/")))
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range decl.FindAllSubmatch(src, -1) {
					fns[string(m[1])] = true
				}
			}
			declared[row.Pkg] = fns
		}
		top, _, _ := strings.Cut(row.Name, "/")
		if !fns[top] {
			t.Errorf("%s: row %q (pkg %s) has no live benchmark: func %s is declared in no _test.go there",
				filepath.Base(latest), row.Name, row.Pkg, top)
		}
	}
}
