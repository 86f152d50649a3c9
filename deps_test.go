package hardharvest_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowlist names the internal packages that no non-test file
// imports but that stay in the tree, each with the reason it stays.
var orphanAllowlist = map[string]string{
	"internal/calibrate": "its test is the oracle pinning cluster.DefaultConfig's cache factors against internal/mem",
}

// TestNoOrphanInternalPackages fails when an internal package is imported
// by no non-test file outside its own directory: such a package is a model
// or helper that no command, figure, scenario, serve run or benchmark
// executes, and only its own tests keep it alive.
func TestNoOrphanInternalPackages(t *testing.T) {
	const module = "hardharvest/"
	pkgs := map[string]bool{}         // internal package dir -> has a non-test file
	importedFrom := map[string]bool{} // internal package dir -> imported from elsewhere
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep, ok := strings.CutPrefix(p, module); ok && strings.HasPrefix(dep, "internal/") && dep != dir {
				importedFrom[dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for dir := range pkgs {
		if !importedFrom[dir] && orphanAllowlist[dir] == "" {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s: no non-test file outside the package imports it; delete it, or allowlist it with a reason", dir)
	}
	for dir := range orphanAllowlist {
		if !pkgs[dir] || importedFrom[dir] {
			t.Errorf("orphanAllowlist: %s is gone or now imported; drop its entry", dir)
		}
	}
}
