package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryDirectoryInOneRow: each directory under internal/, cmd/ and
// examples/ that holds Go source is counted by exactly one Table 2 row,
// no file is counted twice, and no row lists a directory that holds no Go
// source (a deleted package would otherwise stay listed at 0 lines).
func TestEveryDirectoryInOneRow(t *testing.T) {
	const root = "../.."
	rows := map[string][]string{} // directory → the rows counting its files
	files := map[string]string{}  // file → the row counting it
	for _, g := range groups {
		for _, dir := range g.dirs {
			srcs := goFiles(root, dir)
			if len(srcs) == 0 {
				t.Errorf("row %q lists %s, which holds no Go files", g.name, dir)
			}
			for _, f := range srcs {
				if prev, ok := files[f]; ok {
					t.Errorf("%s counted by %q and %q", f, prev, g.name)
				}
				files[f] = g.name
				d := filepath.Dir(f)
				if rs := rows[d]; len(rs) == 0 || rs[len(rs)-1] != g.name {
					rows[d] = append(rs, g.name)
				}
			}
		}
	}
	seen := 0
	for _, top := range []string{"internal", "cmd", "examples"} {
		filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				t.Fatal(err)
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			seen++
			if rs := rows[filepath.Dir(path)]; len(rs) != 1 {
				t.Errorf("%s is counted by %d rows %v, want 1", path, len(rs), rs)
			}
			return nil
		})
	}
	if seen == 0 {
		t.Fatal("found no Go files under internal/, cmd/ or examples/")
	}
}
