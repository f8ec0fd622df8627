package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// maxUnreferenced pins how many exported declarations in internal/ no
// non-test file references. It only goes down: a declaration that only a
// test uses is either deleted or moved into that test's package, unless it
// is a paper component a test demonstrates, an interface method or an
// accessor a test asserts an invariant through (CHANGES.md lists each one
// kept and why).
const maxUnreferenced = 209

// TestExportedSurfaceIsUsed type-checks every non-test package of the
// module and counts the exported package-level declarations and exported
// methods of exported types in internal/ that no non-test file references
// outside the declaration itself. A method reached only through an
// interface counts as unreferenced.
func TestExportedSurfaceIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	unused, err := unreferencedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported declarations in internal/ with no non-test reference (pin %d)", len(unused), maxUnreferenced)
	if len(unused) > maxUnreferenced {
		t.Errorf("%d exported declarations in internal/ have no non-test reference, above the pin of %d; delete what nothing runs, or move test harness into a _test.go file:\n\t%s",
			len(unused), maxUnreferenced, strings.Join(unused, "\n\t"))
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// unreferencedExports returns the sorted names ("vnet.Link.IsDown") of the
// exported internal/ declarations that no non-test file references.
func unreferencedExports(root string) ([]string, error) {
	// One go list call gives every package in dependency order, so each
	// module package is checked after its imports, and the standard
	// library's export data for the importer.
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list: " + err.Error() + ": " + stderr.String())
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})

	decls := map[types.Object]candidate{}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp

		// A method's receiver names its type without using it.
		receivers := map[*ast.Ident]bool{}
		internal := strings.Contains(p.ImportPath, "/internal/")
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
					if internal {
						addCandidate(decls, info.Defs[d.Name], d.Pos(), d.End())
					}
				case *ast.GenDecl:
					if !internal {
						continue
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							addCandidate(decls, info.Defs[s.Name], s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, id := range s.Names {
								addCandidate(decls, info.Defs[id], s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			if receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if c, ok := decls[obj]; ok && id.Pos() >= c.pos && id.Pos() < c.end {
				continue
			}
			used[obj] = true
		}
	}
	var names []string
	for obj, c := range decls {
		if !used[obj] {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// candidate is an exported declaration the scan reports unless some
// non-test file references it outside [pos, end), its own declaration.
type candidate struct {
	name     string // "vnet.Link.IsDown"
	pos, end token.Pos
}

// addCandidate records obj when it is an exported package-level
// declaration or an exported method of an exported type.
func addCandidate(decls map[types.Object]candidate, obj types.Object, pos, end token.Pos) {
	if obj == nil || !obj.Exported() {
		return
	}
	name := obj.Pkg().Name() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || !named.Obj().Exported() {
				return
			}
			name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return
	}
	decls[obj] = candidate{name, pos, end}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
