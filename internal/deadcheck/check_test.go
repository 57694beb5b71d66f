package deadcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// reason says why an exported identifier that no non-test code uses is
// kept anyway. Each allowlist entry carries exactly one.
type reason string

const (
	// oracle: a test compares a fast path against it.
	oracle reason = "oracle"
	// accessor: tests read state or build fixtures through it, and no
	// other export gives them that.
	accessor reason = "accessor"
	// enum: a member of a constant set whose other members are used.
	enum reason = "enum"
)

// report is what one check finds.
type report struct {
	// Dead lists the exported identifiers declared under internal/ that
	// no non-test file uses and the allowlist does not name.
	Dead []string
	// Stale lists allowlist entries that name no declared identifier, or
	// an identifier that non-test code now uses.
	Stale []string
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	CgoFiles   []string
	Error      *struct{ Err string }
}

// checker type-checks the non-test packages of a set of modules and
// records which of their objects non-test code uses.
type checker struct {
	fset    *token.FileSet
	std     types.Importer
	listed  map[string]*listedPackage
	checked map[string]*types.Package

	used  map[types.Object]bool
	named []*types.Named            // every named type the checked code declares or instantiates
	iface map[*types.Interface]bool // every interface type with methods the checked code can see

	// decl maps each exported object declared in an internal/ package
	// to its allowlist key.
	decl map[types.Object]string
}

// check lists the packages of each module rooted at dirs, type-checks
// them, and reports the exported identifiers declared in an internal/
// package that no non-test file of any of the modules uses, less those
// allow names.
func check(dirs []string, allow map[string]reason) (*report, error) {
	// Standard-library packages are checked from source; a cgo-free
	// build context keeps that independent of a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	c := &checker{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		used:    map[types.Object]bool{},
		iface:   map[*types.Interface]bool{},
		decl:    map[types.Object]string{},
	}
	var paths []string
	for _, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if _, dup := c.listed[p.ImportPath]; !dup {
				c.listed[p.ImportPath] = p
				paths = append(paths, p.ImportPath)
			}
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}
	c.addStdInterfaces()
	c.markInterfaceMethods()
	return c.report(allow), nil
}

// goList runs `go list -json ./...` in dir.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		if len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// Import type-checks a listed package (once) and hands every other
// import path to the standard-library source importer, so that one
// types.Object stands for each declaration across all the modules.
func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := c.listed[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	c.record(pkg, files, info)
	return pkg, nil
}

// record notes the uses, interfaces, named types and declarations of one
// checked package.
func (c *checker) record(pkg *types.Package, files []*ast.File, info *types.Info) {
	// A method's receiver names its type without using it.
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !recv[id] {
			c.use(obj)
		}
	}
	// A field promoted through embedded fields uses each of them.
	for _, sel := range info.Selections {
		t := sel.Recv()
		idx := sel.Index()
		for _, i := range idx[:len(idx)-1] {
			st, ok := deref(t).Underlying().(*types.Struct)
			if !ok {
				break
			}
			c.use(st.Field(i))
			t = st.Field(i).Type()
		}
	}
	// An unkeyed struct literal sets every field.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := deref(info.Types[lit].Type).Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					c.use(st.Field(i))
				}
			}
			return true
		})
	}
	for _, tv := range info.Types {
		c.addInterface(tv.Type)
	}
	for _, inst := range info.Instances {
		if n, ok := types.Unalias(inst.Type).(*types.Named); ok {
			c.named = append(c.named, n)
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			c.named = append(c.named, n)
			c.addInterface(n)
		}
	}
	if isInternal(pkg.Path()) {
		c.declare(pkg)
	}
}

// use marks obj used, at its generic origin.
func (c *checker) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	c.used[obj] = true
}

func deref(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		return types.Unalias(p.Elem())
	}
	return t
}

func (c *checker) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := types.Unalias(t).Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		c.iface[it] = true
	}
}

// addStdInterfaces adds the exported interfaces of every package the
// checked code imports, directly or not, and the predeclared error.
func (c *checker) addStdInterfaces() {
	c.addInterface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := c.listed[p.Path()]; !ours {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					c.addInterface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.checked {
		walk(p)
	}
}

// markInterfaceMethods marks a method used when some interface the
// checked code can see has a method of its name and signature, and a
// named type whose method set selects it implements that interface.
func (c *checker) markInterfaceMethods() {
	wanted := map[string][]*types.Func{}
	for obj := range c.decl {
		if f, ok := obj.(*types.Func); ok && isMethod(f) && !c.used[f] {
			wanted[f.Name()] = append(wanted[f.Name()], f)
		}
	}
	for it := range c.iface {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			for _, f := range wanted[m.Name()] {
				if !c.used[f] && types.Identical(f.Type(), m.Type()) && c.implementedBy(it, f) {
					c.used[f] = true
				}
			}
		}
	}
}

// implementedBy reports whether a named type (or a pointer to one)
// whose method set selects f implements it.
func (c *checker) implementedBy(it *types.Interface, f *types.Func) bool {
	for _, n := range c.named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			obj, _, _ := types.LookupFieldOrMethod(t, false, f.Pkg(), f.Name())
			if m, ok := obj.(*types.Func); ok && m.Origin() == f {
				if missing, _ := types.MissingMethod(t, it, true); missing == nil {
					return true
				}
			}
		}
	}
	return false
}

func isMethod(f *types.Func) bool {
	return f.Type().(*types.Signature).Recv() != nil
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// declare keys every exported package-level object of pkg, the exported
// methods of its named types and the exported fields of its named
// struct types (nested anonymous structs included).
func (c *checker) declare(pkg *types.Package) {
	short := pkg.Path()
	if i := strings.LastIndex(short, "internal/"); i >= 0 {
		short = short[i+len("internal/"):]
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			c.decl[obj] = short + "." + name
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := n.Underlying().(*types.Interface); !isIface {
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if !m.Exported() {
					continue
				}
				recvName := name
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recvName = "(*" + name + ")"
				}
				c.decl[m] = short + "." + recvName + "." + m.Name()
			}
		}
		c.declareFields(short+"."+name, n.Underlying())
	}
}

func (c *checker) declareFields(prefix string, t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if f.Exported() {
				c.decl[f] = prefix + "." + f.Name()
			}
			if !f.Embedded() {
				c.declareFields(prefix+"."+f.Name(), f.Type())
			}
		}
	case *types.Pointer:
		c.declareFields(prefix, t.Elem())
	case *types.Slice:
		c.declareFields(prefix, t.Elem())
	case *types.Array:
		c.declareFields(prefix, t.Elem())
	case *types.Map:
		c.declareFields(prefix, t.Elem())
	}
}

func (c *checker) report(allow map[string]reason) *report {
	r := &report{}
	keys := map[string]bool{}
	for obj, key := range c.decl {
		keys[key] = true
		_, allowed := allow[key]
		switch {
		case !c.used[obj] && !allowed:
			r.Dead = append(r.Dead, key)
		case c.used[obj] && allowed:
			r.Stale = append(r.Stale, key+" (used by non-test code)")
		}
	}
	for key := range allow {
		if !keys[key] {
			r.Stale = append(r.Stale, key+" (not declared)")
		}
	}
	sort.Strings(r.Dead)
	sort.Strings(r.Stale)
	return r
}
