// Command deadcode is the repo's unreferenced-function gate: it lists
// every function or method declared in a non-test file of the root
// module that no non-test file of any scanned module references, and
// fails unless each one is on the checked-in allowlist — and fails on
// an allowlist line that no longer names such a function, so the list
// only ever shrinks with the code.
//
// Usage:
//
//	go run ./scripts/deadcode
//
// Run it from the repository root. The root module's declarations are
// checked; the bench module only adds references. The allowlist is
// scripts/deadcode/allowlist.txt.
//
// References are resolved by go/types, not by name: each module package
// is type-checked from its non-test files in `go list -deps` order, and
// a function counts as referenced when some identifier outside its own
// body resolves to it. Exempt without a listing:
//
//   - the exported API of the root module's root package (the library
//     surface callers outside the repo use);
//   - package-level main and init functions;
//   - methods that make a module type satisfy an interface — declared in
//     a module package or in a package one imports, written inline in
//     module code (a type assertion to interface{ M() }), or error —
//     since dynamic dispatch calls them without naming them.
//
// Allowlist lines read `SYMBOL TAG`, where SYMBOL is the import path,
// a dot and the function name (`repro/internal/core.Exact`) or the
// receiver type's name and the method (`repro/internal/grid.Index.Store`),
// and TAG says why the function stays: oracle (an independent reference
// implementation tests compare against), test-seam (a constructor or hook
// only tests reach), test-infra (a package that exists to serve tests),
// accessor (a read-only query that a test in another package calls, or
// whose body is more than a field read; a plain field getter only its
// own package's tests call is deleted instead, and the tests read the
// field), or roadmap-N (a named later deletion, ROADMAP.md open item N).
// Blank lines are ignored.
//
// The tool is stdlib-only: go/parser, go/types and the source importer
// for the standard library, plus the go command for package listing.
package main

import (
	"bufio"
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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	ok, err := run([]string{".", "bench"}, "scripts/deadcode/allowlist.txt", os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run scans the modules, reconciles the findings with the allowlist and
// writes one line per problem to w; ok is false when there is any.
func run(dirs []string, allowPath string, w io.Writer) (ok bool, err error) {
	allowed, err := readAllowlist(allowPath)
	if err != nil {
		return false, err
	}
	dead, err := scan(dirs)
	if err != nil {
		return false, err
	}
	problems := 0
	for _, d := range dead {
		if _, ok := allowed[d.name]; ok {
			delete(allowed, d.name)
			continue
		}
		fmt.Fprintf(w, "%s: %s is referenced by no non-test file\n", d.pos, d.name)
		problems++
	}
	stale := make([]string, 0, len(allowed))
	for name := range allowed {
		stale = append(stale, name)
	}
	sort.Slice(stale, func(i, j int) bool { return allowed[stale[i]] < allowed[stale[j]] })
	for _, name := range stale {
		fmt.Fprintf(w, "%s:%d: stale allowlist line: %s is referenced or gone\n", allowPath, allowed[name], name)
		problems++
	}
	if problems > 0 {
		fmt.Fprintf(w, "deadcode: %d problem(s); delete the function, or list it in %s with a tag\n", problems, allowPath)
	}
	return problems == 0, nil
}

var tagRE = regexp.MustCompile(`^(oracle|test-seam|test-infra|accessor|roadmap-[0-9]+)$`)

// readAllowlist returns the listed symbols with their line numbers.
func readAllowlist(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := make(map[string]int)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || !tagRE.MatchString(fields[1]) {
			return nil, fmt.Errorf("%s:%d: want `SYMBOL TAG` with TAG one of oracle, test-seam, test-infra, accessor, roadmap-N", path, n)
		}
		if _, dup := allowed[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, n, fields[0])
		}
		allowed[fields[0]] = n
	}
	return allowed, sc.Err()
}

// listedPackage is the subset of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goList lists the packages of the module in dir and their
// dependencies, dependencies first.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// modulePackage is one type-checked module package.
type modulePackage struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
	root  bool // declared in the root module
}

// moduleImporter serves the module's own packages from the type-checked
// set, so every module shares one types.Object per declaration, and
// everything else from the standard library's sources.
type moduleImporter struct {
	pkgs map[string]*types.Package
	std  types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// deadFunc is one unreferenced function.
type deadFunc struct {
	name string
	pos  token.Position
}

// scan type-checks the modules in dirs and returns the root module's
// unreferenced, non-exempt functions.
func scan(dirs []string) ([]deadFunc, error) {
	build.Default.CgoEnabled = false // pure-Go variants of net, os/user
	fset := token.NewFileSet()
	imp := &moduleImporter{
		pkgs: make(map[string]*types.Package),
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var (
		pkgs       []*modulePackage
		rootModule string
	)
	for i, dir := range dirs {
		listed, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Standard || lp.Module == nil {
				continue
			}
			if i == 0 && rootModule == "" {
				rootModule = lp.Module.Path
			}
			if _, done := imp.pkgs[lp.ImportPath]; done {
				continue
			}
			mp := &modulePackage{root: lp.Module.Path == rootModule}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				mp.files = append(mp.files, f)
			}
			mp.info = &types.Info{
				Defs:  make(map[*ast.Ident]types.Object),
				Uses:  make(map[*ast.Ident]types.Object),
				Types: make(map[ast.Expr]types.TypeAndValue),
			}
			conf := types.Config{Importer: imp}
			mp.types, err = conf.Check(lp.ImportPath, fset, mp.files, mp.info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %w", lp.ImportPath, err)
			}
			imp.pkgs[lp.ImportPath] = mp.types
			pkgs = append(pkgs, mp)
		}
	}

	used := make(map[*types.Func]bool)
	for _, mp := range pkgs {
		for _, f := range mp.files {
			markUses(f, mp.info, used)
		}
	}
	ifaces := collectInterfaces(pkgs)

	var dead []deadFunc
	for _, mp := range pkgs {
		if !mp.root {
			continue
		}
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := mp.info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] || exempt(fn, rootModule, ifaces) {
					continue
				}
				dead = append(dead, deadFunc{name: symbol(fn), pos: fset.Position(fd.Pos())})
			}
		}
	}
	return dead, nil
}

// markUses records every function an identifier in f resolves to, except
// a function's references to itself from inside its own body.
func markUses(f *ast.File, info *types.Info, used map[*types.Func]bool) {
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
				used[fn.Origin()] = true
			}
			return true
		})
	}
}

// collectInterfaces indexes, by method name, every interface a module
// method could be satisfying: package-level interfaces of the module
// packages and of the packages they import, interface types written
// anywhere in module code, and error.
func collectInterfaces(pkgs []*modulePackage) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, mp := range pkgs {
		addScope(mp.types)
		for _, ip := range mp.types.Imports() {
			addScope(ip)
		}
		for _, tv := range mp.info.Types {
			if tv.IsType() && !isGeneric(tv.Type) {
				add(tv.Type)
			}
		}
	}
	return byMethod
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// receiver returns the named type fn is a method of, or nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exempt reports whether fn needs no reference to stay.
func exempt(fn *types.Func, rootModule string, ifaces map[string][]*types.Interface) bool {
	if fn.Pkg().Path() == rootModule && fn.Exported() {
		return true
	}
	t := receiver(fn)
	if t == nil {
		return fn.Name() == "main" || fn.Name() == "init"
	}
	if isGeneric(t) {
		return false
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// symbol names fn as the allowlist does: path.Func or path.Type.Method.
func symbol(fn *types.Func) string {
	if t := receiver(fn); t != nil {
		return fn.Pkg().Path() + "." + t.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
