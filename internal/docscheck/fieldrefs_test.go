package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeSpan matches a markdown inline code span, which may wrap onto
	// a second line.
	codeSpan = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)?)`")
	// fieldRef matches pkg.Type.Member inside a code span; the package
	// name may carry digits (mp2), and a leading identifier character
	// or dot means the match is the tail of a longer selector.
	fieldRef = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.(\w+)\.(\w+)`)
)

// TestDocFieldRefsExist fails for every backticked pkg.Type.Member
// reference in README.md, DESIGN.md and docs/*.md whose package is the
// facade (fragmd) or an internal package and whose type has no such
// field or method, so a deleted option field cannot survive in prose.
// References into other packages (the standard library) are not
// checked.
func TestDocFieldRefsExist(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append([]string{"../../README.md", "../../DESIGN.md"}, files...)
	r := newResolver()
	checked := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, span := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			code := strings.ReplaceAll(text[span[2]:span[3]], "\n", " ")
			for _, m := range fieldRef.FindAllStringSubmatch(code, -1) {
				ok, err := r.has(m[1], m[2], m[3])
				if err != nil {
					line := 1 + strings.Count(text[:span[0]], "\n")
					t.Errorf("%s:%d: `%s.%s.%s`: %v", filepath.Base(path), line, m[1], m[2], m[3], err)
				}
				if ok {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no pkg.Type.Member reference resolved: the scan matched nothing")
	}
}

// The resolver follows facade aliases into internal packages and finds
// fields, promoted fields and methods; it rejects a deleted field and
// ignores packages outside the module.
func TestDocFieldRefResolver(t *testing.T) {
	r := newResolver()
	for _, c := range []struct {
		pkg, typ, member string
		want             bool
		wantErr          bool
	}{
		{"sched", "Options", "Workers", true, false},
		{"fragmd", "EngineOptions", "WarmStart", true, false}, // alias of sched.Options
		{"sched", "Engine", "RunContext", true, false},        // method
		{"mp2", "Result", "ZVecIters", true, false},
		{"sched", "Options", "Timeout", false, true},
		{"mp2", "Options", "PairBlock", false, true},
		{"sched", "NoSuchType", "Workers", false, true},
		{"time", "Duration", "Seconds", false, false}, // not ours: unchecked
	} {
		ok, err := r.has(c.pkg, c.typ, c.member)
		if ok != c.want || (err != nil) != c.wantErr {
			t.Errorf("%s.%s.%s: resolved %t, error %v; want %t, error %t",
				c.pkg, c.typ, c.member, ok, err, c.want, c.wantErr)
		}
	}
}

// pkgDecls indexes one package's top-level type declarations (and
// explicitly typed vars) and its methods by receiver type.
type pkgDecls struct {
	types   map[string]ast.Expr
	methods map[string]map[string]bool
}

// resolver loads the facade and internal packages on demand.
type resolver struct {
	pkgs map[string]*pkgDecls // nil entry: not a package of this module
}

func newResolver() *resolver { return &resolver{pkgs: map[string]*pkgDecls{}} }

func (r *resolver) load(pkg string) (*pkgDecls, error) {
	if d, seen := r.pkgs[pkg]; seen {
		return d, nil
	}
	dir := "../" + pkg
	if pkg == "fragmd" {
		dir = "../../"
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		r.pkgs[pkg] = nil
		return nil, nil
	}
	fset := token.NewFileSet()
	parsed, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	d := &pkgDecls{types: map[string]ast.Expr{}, methods: map[string]map[string]bool{}}
	if p := parsed[pkg]; p != nil {
		for _, f := range p.Files {
			d.add(f)
		}
	}
	r.pkgs[pkg] = d
	return d, nil
}

func (d *pkgDecls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil || len(decl.Recv.List) == 0 {
				continue
			}
			recv := typeName(decl.Recv.List[0].Type)
			if d.methods[recv] == nil {
				d.methods[recv] = map[string]bool{}
			}
			d.methods[recv][decl.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					d.types[s.Name.Name] = s.Type
				case *ast.ValueSpec:
					if s.Type != nil {
						for _, n := range s.Names {
							d.types[n.Name] = s.Type
						}
					}
				}
			}
		}
	}
}

// typeName strips pointers and type arguments off a receiver type.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// has reports whether pkg.typ has a field or method named member. It
// returns false and no error for packages outside the module, and an
// error for a reference into the module that does not resolve.
func (r *resolver) has(pkg, typ, member string) (bool, error) {
	d, err := r.load(pkg)
	if err != nil || d == nil {
		return false, err
	}
	expr, ok := d.types[typ]
	if !ok {
		return false, fmt.Errorf("package %s declares no type %s", pkg, typ)
	}
	if r.member(d, typ, expr, member, 0) {
		return true, nil
	}
	return false, fmt.Errorf("%s.%s has no field or method %s", pkg, typ, member)
}

// maxDepth bounds the chain of embedded and named types followed, so
// types that embed each other through pointers cannot recurse forever.
const maxDepth = 8

// member looks member up among typ's methods, then in its type
// expression: struct fields (embedded ones promote their members),
// interface methods, and the type a definition or alias names.
func (r *resolver) member(d *pkgDecls, typ string, expr ast.Expr, member string, depth int) bool {
	if d.methods[typ][member] {
		return true
	}
	if depth > maxDepth {
		return false
	}
	switch e := expr.(type) {
	case *ast.StructType:
		for _, f := range e.Fields.List {
			for _, n := range f.Names {
				if n.Name == member {
					return true
				}
			}
			if len(f.Names) == 0 && (embeddedName(f.Type) == member || r.named(d, f.Type, member, depth+1)) {
				return true
			}
		}
	case *ast.InterfaceType:
		for _, m := range e.Methods.List {
			for _, n := range m.Names {
				if n.Name == member {
					return true
				}
			}
		}
	default:
		return r.named(d, expr, member, depth+1)
	}
	return false
}

// embeddedName is the field name an embedded type gets: T for T, *T,
// pkg.T and *pkg.T.
func embeddedName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return typeName(e)
}

// named follows a type expression that names another type — local
// (Options), qualified (sched.Options), or behind a pointer — and looks
// member up there.
func (r *resolver) named(d *pkgDecls, e ast.Expr, member string, depth int) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			found, _ := r.has(x.Name, sel.Sel.Name, member)
			return found
		}
		return false
	}
	name := typeName(e)
	if next, ok := d.types[name]; ok && name != "" {
		return r.member(d, name, next, member, depth)
	}
	return false
}
