package neofog

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
	"maps"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// reachAllowlist names production code that no production root reaches,
// or a field that no production code writes, with the reason it stays.
// An entry is a package path (the whole package), a function
// ("pkg.Func"), a method ("pkg.Type.Method") or a field
// ("pkg.Type.Field"). Each function entry counts as a root, so its
// callees need no entries of their own.
var reachAllowlist = map[string]string{
	"neofog/internal/serve/client.Client.Run": "the retrying submit, wait and fetch that the serve and " +
		"router chaos batteries drive through kills, drains and shard deaths; the load harness " +
		"submits and waits without retries",
	"neofog/internal/serve/client.Client.BaseDelay": "lets the chaos batteries shorten the retry backoff " +
		"to milliseconds",
	"neofog/internal/serve/client.Client.MaxDelay": "lets the chaos batteries cap one backoff sleep " +
		"at milliseconds",
	"neofog/internal/serve/client.Client.Seed": "fixes the retry jitter so the chaos batteries and " +
		"the client's tests replay the same sleeps",
	"neofog/internal/serve/client.Client.sleep": "lets the client's tests record backoff and poll " +
		"sleeps instead of waiting them out",
	"neofog/internal/telemetry.Recorder.Events": "tests in sim and the root package compare what " +
		"a retaining recorder keeps against streams and exports",
	"neofog/internal/telemetry.Recorder.Samples": "the root package's streaming contract test " +
		"compares a stream against what a retaining recorder keeps",
	"neofog/internal/telemetry.ValidateTraceJSON": "the trace-export check that the sim and root " +
		"golden tests share with the fuzz target",
	"neofog/internal/harvester.SuperCap.Delivered": "node tests bound a node's spent energy by " +
		"what its cap delivered",
	"neofog/internal/metrics.Table.Cell": "experiments tests read table cells by column name",
	"neofog/internal/serve.Config.ExecHook": "lets a test run a hook on the worker before each execution, " +
		"to park jobs at a deterministic point or inject a panic",
	"neofog/internal/serve.Config.Clock": "lets a test substitute a fake clock for job timestamps, " +
		"queue waits, deadlines and quarantine expiry",
	"neofog/internal/router.Config.Clock": "lets a test substitute a fake clock for the router's latency metrics",
	"neofog/internal/serve.resultStore.crashHook": "lets a crash test abort a result file's commit " +
		"between the fsynced temp write and the rename",
}

// TestProductionCodeIsReachable fails on any function, method or type in
// a non-test file of this module that no production root reaches. The
// roots are every main and init, every package-level var and const
// initializer, the exported API of this package, and the allowlist. A
// method is also reached when its receiver type is reached and either a
// reached function calls a method of that name through an interface, or
// the method implements a standard-library interface (String, Error,
// Write, ServeHTTP, ...), which the standard library calls for us.
// Code only tests call belongs in a _test.go file beside those tests.
//
// It also fails on any struct field declared in a non-test file that no
// non-test code writes (see writeScan for what counts as a write). A
// setting only tests turn is a constant of the package that reads it.
func TestProductionCodeIsReachable(t *testing.T) {
	g, err := loadReachGraph()
	if err != nil {
		t.Fatal(err)
	}
	reached := g.reach(nil)
	var allow []*reachItem
	allowFields := map[*fieldItem]bool{}
	for _, entry := range slices.Sorted(maps.Keys(reachAllowlist)) {
		items, fields := g.named(entry), g.namedFields(entry)
		if len(items) == 0 && len(fields) == 0 {
			t.Errorf("stale allowlist entry %s: names no production function, method, type or field", entry)
			continue
		}
		needed := false
		for _, it := range items {
			needed = needed || !reached[it]
		}
		for _, f := range fields {
			needed = needed || !g.written[f.obj]
			allowFields[f] = true
		}
		if !needed {
			t.Errorf("stale allowlist entry %s: production code reaches or writes everything it names", entry)
		}
		allow = append(allow, items...)
	}
	reached = g.reach(allow)
	var missed []string
	for _, it := range g.items {
		if !reached[it] {
			missed = append(missed, fmt.Sprintf("%s:%d %s", it.file, it.line, it.key))
		}
	}
	if len(missed) > 0 {
		t.Errorf("%d production functions, methods and types that no production root reaches "+
			"(delete them, move them into a _test.go file beside their tests, or allowlist them with a reason):\n%s",
			len(missed), strings.Join(missed, "\n"))
	}
	var unwritten []string
	for _, f := range g.fields {
		if !g.written[f.obj] && !allowFields[f] {
			unwritten = append(unwritten, fmt.Sprintf("%s:%d %s", f.file, f.line, f.key))
		}
	}
	if len(unwritten) > 0 {
		t.Errorf("%d fields that no production code writes "+
			"(delete them, make a setting only tests turn a constant, or allowlist them with a reason):\n%s",
			len(unwritten), strings.Join(unwritten, "\n"))
	}
}

// reachItem is one package-level function, method or type declaration.
type reachItem struct {
	key        string // import path, then ".Name" or ".Type.Method"
	pkg        string
	file       string
	line       int
	decl       ast.Node
	info       *types.Info
	methodName string // for a method
	stdMethod  bool   // implements a standard-library interface method
}

// fieldItem is one struct field declared in a non-test file, in a named
// or an anonymous struct type.
type fieldItem struct {
	key  string // import path, then the enclosing declaration's name and ".Field"
	pkg  string
	file string
	line int
	obj  *types.Var
}

type reachGraph struct {
	items   []*reachItem
	byObj   map[types.Object]*reachItem
	methods map[*types.TypeName][]*reachItem
	roots   []reachRoot
	fields  []*fieldItem
	written map[*types.Var]bool // by the field's origin
}

type reachRoot struct {
	node ast.Node
	info *types.Info
}

type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// loadReachGraph type-checks the non-test files of every package in this
// module, with the standard library type-checked from source.
func loadReachGraph() (*reachGraph, error) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(build.Default.GOROOT, "bin", "go")
	}
	out, err := exec.Command(goTool, "list", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		module: map[string]*types.Package{},
	}
	ifaces, err := stdInterfaces(fset, imp)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	g := &reachGraph{byObj: map[types.Object]*reachItem{}, methods: map[*types.TypeName][]*reachItem{},
		written: map[*types.Var]bool{}}
	// go list -deps prints every package after its dependencies.
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		imp.module[p.ImportPath] = tp
		for _, f := range files {
			g.addFile(fset, root, p, f, info, ifaces)
			g.addFields(fset, root, p, f, info)
		}
	}
	return g, nil
}

func (g *reachGraph) addFile(fset *token.FileSet, root string, p listedPackage, f *ast.File, info *types.Info, ifaces []*types.Interface) {
	publicAPI := p.ImportPath == "neofog"
	add := func(id *ast.Ident, key string, decl ast.Node, recv *types.TypeName) *reachItem {
		pos := fset.Position(id.Pos())
		it := &reachItem{key: key, pkg: p.ImportPath, file: relFile(root, pos.Filename), line: pos.Line,
			decl: decl, info: info}
		g.items = append(g.items, it)
		g.byObj[info.Defs[id]] = it
		if publicAPI && id.IsExported() && (recv == nil || recv.Exported()) {
			g.roots = append(g.roots, reachRoot{decl, info})
		}
		return it
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				if d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main") {
					g.roots = append(g.roots, reachRoot{d, info})
					continue
				}
				add(d.Name, p.ImportPath+"."+d.Name.Name, d, nil)
				continue
			}
			fn := info.Defs[d.Name].(*types.Func)
			recv := receiverName(fn)
			it := add(d.Name, p.ImportPath+"."+recv.Name()+"."+d.Name.Name, d, recv)
			it.methodName = d.Name.Name
			it.stdMethod = implementsStd(recv, d.Name.Name, ifaces)
			g.methods[recv] = append(g.methods[recv], it)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					add(ts.Name, p.ImportPath+"."+ts.Name.Name, ts, nil)
				} else {
					g.roots = append(g.roots, reachRoot{s, info})
				}
			}
		}
	}
}

// relFile names a source file relative to the module root.
func relFile(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil {
		filename = rel
	}
	return filepath.ToSlash(filename)
}

// reach returns the items reached from the production roots and extra.
func (g *reachGraph) reach(extra []*reachItem) map[*reachItem]bool {
	reached := map[*reachItem]bool{}
	viaInterface := map[string]bool{}
	var queue []*reachItem
	visit := func(it *reachItem) {
		if it != nil && !reached[it] {
			reached[it] = true
			queue = append(queue, it)
		}
	}
	walk := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				if recv := obj.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					viaInterface[obj.Name()] = true
				} else {
					visit(g.byObj[obj.Origin()])
				}
			case *types.TypeName:
				visit(g.byObj[obj])
			}
			return true
		})
	}
	for _, r := range g.roots {
		walk(r.node, r.info)
	}
	for _, it := range extra {
		visit(it)
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			walk(it.decl, it.info)
		}
		for recv, methods := range g.methods {
			if !reached[g.byObj[recv]] {
				continue
			}
			for _, m := range methods {
				if m.stdMethod || viaInterface[m.methodName] {
					visit(m)
				}
			}
		}
	}
	return reached
}

// addFields records the struct fields the file declares and the fields
// its code writes.
func (g *reachGraph) addFields(fset *token.FileSet, root string, p listedPackage, f *ast.File, info *types.Info) {
	// Each unit is a function or one spec of a declaration, named for the
	// keys of the fields it declares.
	type unit struct {
		node    ast.Node
		owner   string
		exclude *types.Struct
	}
	var units []unit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			u := unit{node: d, owner: d.Name.Name}
			if d.Recv != nil {
				fn := info.Defs[d.Name].(*types.Func)
				u.owner = receiverName(fn).Name() + "." + u.owner
				if _, ptr := fn.Signature().Recv().Type().(*types.Pointer); !ptr {
					// A value receiver's writes land in a copy, the way a
					// default filler's do; they make no caller.
					u.exclude, _ = receiverName(fn).Type().Underlying().(*types.Struct)
				}
			}
			units = append(units, u)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					units = append(units, unit{node: s, owner: s.Name.Name})
				case *ast.ValueSpec:
					units = append(units, unit{node: s, owner: s.Names[0].Name})
				}
			}
		}
	}
	for _, u := range units {
		ast.Inspect(u.node, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			s := info.Types[st].Type.(*types.Struct)
			for i := 0; i < s.NumFields(); i++ {
				v := s.Field(i)
				pos := fset.Position(v.Pos())
				g.fields = append(g.fields, &fieldItem{key: p.ImportPath + "." + u.owner + "." + v.Name(),
					pkg: p.ImportPath, file: relFile(root, pos.Filename), line: pos.Line, obj: v})
				if tag, ok := reflect.StructTag(s.Tag(i)).Lookup("json"); ok && tag != "-" {
					g.written[v] = true // the JSON decoder writes it
				}
			}
			return true
		})
		ast.Inspect(u.node, writeScan{info: info, exclude: u.exclude, written: g.written}.visit)
	}
}

// writeScan marks the fields one declaration's code writes: composite
// literal elements, the left side of an assignment or inc/dec, the
// operand of &, and the receiver of a pointer-method call. Writing x.f[i]
// or x.f.g writes f too. Writes to the fields of exclude (the struct of a
// value receiver) do not count.
type writeScan struct {
	info    *types.Info
	exclude *types.Struct
	written map[*types.Var]bool
}

func (w writeScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			w.operand(lhs)
		}
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			w.operand(n.Key)
			w.operand(n.Value)
		}
	case *ast.IncDecStmt:
		w.operand(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.operand(n.X)
		}
	case *ast.CompositeLit:
		t := w.info.Types[n].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			return true
		}
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.mark(w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var))
			} else {
				w.mark(s.Field(i))
			}
		}
	case *ast.SelectorExpr:
		sel := w.info.Selections[n]
		if sel == nil || sel.Kind() != types.MethodVal {
			return true
		}
		if _, ptr := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer); !ptr {
			return true
		}
		// A pointer method takes the address of its receiver, and of the
		// embedded fields it is promoted through.
		w.path(sel.Recv(), sel.Index()[:len(sel.Index())-1])
		if _, ptr := sel.Recv().(*types.Pointer); !ptr {
			w.operand(n.X)
		}
	}
	return true
}

// operand marks the fields along a written expression such as x.f[i].g.
func (w writeScan) operand(e ast.Expr) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := w.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			w.path(sel.Recv(), sel.Index())
			e = x.X
		default:
			return
		}
	}
}

// path marks the fields a selection's index path walks from recv.
func (w writeScan) path(recv types.Type, index []int) {
	for _, i := range index {
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		f := recv.Underlying().(*types.Struct).Field(i)
		w.mark(f)
		recv = f.Type()
	}
}

func (w writeScan) mark(f *types.Var) {
	f = f.Origin()
	if w.exclude != nil {
		for i := 0; i < w.exclude.NumFields(); i++ {
			if w.exclude.Field(i) == f {
				return
			}
		}
	}
	w.written[f] = true
}

// namedFields returns the fields an allowlist entry names.
func (g *reachGraph) namedFields(entry string) []*fieldItem {
	var out []*fieldItem
	for _, f := range g.fields {
		if f.pkg == entry || f.key == entry {
			out = append(out, f)
		}
	}
	return out
}

// named returns the items an allowlist entry names.
func (g *reachGraph) named(entry string) []*reachItem {
	var out []*reachItem
	for _, it := range g.items {
		if it.pkg == entry || it.key == entry {
			out = append(out, it)
		}
	}
	return out
}

func receiverName(fn *types.Func) *types.TypeName {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// implementsStd reports whether method name of recv implements a method
// of a standard-library interface that recv or *recv satisfies.
func implementsStd(recv *types.TypeName, name string, ifaces []*types.Interface) bool {
	named := recv.Type().(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// stdInterfaceSrc declares the standard-library interfaces through which
// the standard library calls this module's methods.
const stdInterfaceSrc = `package stdifaces

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	_error          error
	stringer        fmt.Stringer
	writer          io.Writer
	closer          io.Closer
	handler         http.Handler
	responseWriter  http.ResponseWriter
	flusher         http.Flusher
	roundTripper    http.RoundTripper
	writerUnwrapper interface{ Unwrap() http.ResponseWriter }
	sorter          sort.Interface
)
`

func stdInterfaces(fset *token.FileSet, imp types.Importer) ([]*types.Interface, error) {
	f, err := parser.ParseFile(fset, "stdifaces.go", stdInterfaceSrc, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: imp}).Check("stdifaces", fset, []*ast.File{f}, info); err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, d := range f.Decls {
		for _, s := range d.(*ast.GenDecl).Specs {
			if ts, ok := s.(*ast.TypeSpec); ok {
				out = append(out, info.Defs[ts.Name].Type().Underlying().(*types.Interface))
			}
		}
	}
	return out, nil
}

// moduleImporter serves this module's packages from those already
// checked and type-checks the standard library from source.
type moduleImporter struct {
	std    types.ImporterFrom
	module map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}
