package multicast_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// referenceAllowlist names the exported declarations that stay although
// no non-test Go references them, each with its reason. A key is the
// package's directory, a dot and the name, with the receiver's type
// name before a method's. An entry whose name is referenced again, or
// no longer declared, fails the test too, so the list only shrinks.
var referenceAllowlist = map[string]string{
	"internal/predict.GoodChannels":   "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/predict.EpidemicSlots":  "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/predict.HaltEpoch":      "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/predict.CoreSlots":      "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/predict.MultiCastSlots": "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/predict.MultiCastCost":  "closed form that a paper-claim check backs or deletes (ROADMAP item 1b)",
	"internal/cache.Store.Locate":     "driver and chaos tests use it from their own packages to damage the exact record a campaign will read",
}

// stdlibMethods are called through the standard library's interfaces
// (fmt.Stringer, error, errors.Unwrap, json.Marshaler,
// json.Unmarshaler), so no selector in the repository need name them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// Every exported top-level declaration in a non-test file of a non-main
// package must be referenced by non-test Go somewhere in the checkout
// (cmd/, examples/ and the perfbench module are callers too), or be
// exempt, or sit in referenceAllowlist: code that only tests or nothing
// call is weight without use. A package-level name is referenced by a
// selector on its package's import name, or by a bare identifier in its
// own package. Without type information, a method is referenced by any
// selector of its name whose operand is not an import name, which errs
// toward keeping code; a selector on an import (slices.Clone) names that
// package's declaration, never a method.
//
// The root package multicast is exempt: it is the public API, and each
// of its names that no Go here calls is a type, value or function that
// other exported API or doc.go relies on. SummaryPoint is the element
// type of Summary.Points, ChaosEvent that of ChaosInjector.Events() and
// ExperimentResult the result of Experiment.Run; ReadSummary,
// MergeSummaries and MergeSummaryFiles are the artifact API doc.go
// promises; CampaignPlan.CacheDir's doc names SummarySchemaVersion; the
// rest are Algo* and Engine* values, sentinel errors, Algorithms,
// PaperParams and InvariantCounts. Methods the standard library calls
// (stdlibMethods) are exempt as well.
func TestExportedCodeIsReferenced(t *testing.T) {
	type decl struct {
		key, ref string // ref is the entry of used that keeps it
		pos      token.Position
	}
	var (
		fset  = token.NewFileSet()
		decls []decl
		// used holds "import/path.Name" for every package-level name
		// referenced and ".Name" for every name selected on a value.
		used = map[string]bool{}
	)
	importPath := func(dir string) string {
		if dir == "." {
			return "multicast"
		}
		return "multicast/" + dir // perfbench's module path is multicast/perfbench
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir // .git, .bench_build and what the go tool ignores
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // import name → import path
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}

		pkg := importPath(dir)
		checked := f.Name.Name != "main" && dir != "."
		declaring := map[*ast.Ident]bool{} // names of types, vars and consts
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if !checked || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{dir + "." + name, pkg + "." + name, fset.Position(d.Name.Pos())})
				} else if !stdlibMethods[name] {
					recv := d.Recv.List[0].Type // T or *T: no type here is generic
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key := fmt.Sprintf("%s.%s.%s", dir, recv, name)
					decls = append(decls, decl{key, "." + name, fset.Position(d.Name.Pos())})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, name := range names {
						declaring[name] = true
						if checked && name.IsExported() {
							decls = append(decls, decl{dir + "." + name.Name, pkg + "." + name.Name, fset.Position(name.Pos())})
						}
					}
				}
			}
		}

		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				used["."+n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				// Parameter, field and interface method names declare.
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				if !declaring[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				// A method's receiver does not keep its type alive.
				ast.Inspect(fn.Type, visit)
				if fn.Body != nil {
					ast.Inspect(fn.Body, visit)
				}
				continue
			}
			ast.Inspect(d, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{}
	for _, d := range decls {
		_, listed := referenceAllowlist[d.key]
		switch referenced := used[d.ref]; {
		case listed && referenced:
			t.Errorf("%s: %s is referenced by non-test Go now: drop it from referenceAllowlist", d.pos, d.key)
		case !listed && !referenced:
			t.Errorf("%s: %s is exported, but no non-test Go references it: delete it, or move it into the tests that use it", d.pos, d.key)
		}
		allowed[d.key] = listed
	}
	for key := range referenceAllowlist {
		if !allowed[key] {
			t.Errorf("referenceAllowlist names %s, which is no longer declared: drop the entry", key)
		}
	}
}
