package multicast_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a relative *.md path as prose or a Markdown link names
// it.
var mdRef = regexp.MustCompile(`[\w./-]+\.md\b`)

// Every *.md path named in a Go comment, README.md or docs/*.md must
// exist, relative to the naming file or to the repository root — a
// pointer to a missing document sends the reader nowhere. The history
// documents at the root are not scanned: they name files that no
// longer exist on purpose.
func TestDocReferencesResolve(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	check := func(file, text string) {
		t.Helper()
		for _, ref := range mdRef.FindAllString(text, -1) {
			if strings.Contains(ref, "//") {
				continue // a URL
			}
			if !exists(filepath.Join(filepath.Dir(file), ref)) && !exists(ref) {
				t.Errorf("%s names %s, which does not exist", file, ref)
			}
		}
	}

	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		check(doc, string(data))
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build and tool directories
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(path, cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
