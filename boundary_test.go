package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExamplesStayOutsideInternal enforces the public-API boundary: no
// package under examples/ may import repro/internal/... directly —
// examples are written against repro/btsim, which is what an external
// consumer of the module can use. (Transitive dependencies via btsim
// are fine; the check is on the examples' own import lists.)
func TestExamplesStayOutsideInternal(t *testing.T) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Imports", "./examples/...").Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go list ./examples/...: %v\n%s", err, stderr)
	}

	type pkg struct {
		ImportPath string
		Imports    []string
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	checked := 0
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		checked++
		for _, imp := range p.Imports {
			if strings.HasPrefix(imp, "repro/internal") {
				t.Errorf("%s imports %s — examples must use the public repro/btsim API", p.ImportPath, imp)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d example packages found, want ≥ 5 (did the examples move?)", checked)
	}
}

// testOnlyExportKeep lists the exported declarations that stay although
// no non-test code names them, each with its reason. A method is keyed
// "Recv.Name", anything else "pkg.Name" (pkg is the directory's last
// element).
var testOnlyExportKeep = map[string]string{
	"Monitor.Checkpoint":         "recovery state; ROADMAP 5(c) (cmd/classify -resume) is its user",
	"consistency.RestoreMonitor": "recovery state; ROADMAP 5(c) (cmd/classify -resume) is its user",
	"refine.NewMachine":          "sequential specification of the refined BT-ADT that tests compare against",
	"Machine.Language":           "sequential specification: a finite fragment of L(T) that tests compare against",
	"concur.Consensus":           "ROADMAP 16 checks the consensus objects on every explored schedule",
	"concur.NewCASConsensus":     "ROADMAP 16: the reference consensus object",
	"concur.NewCTConsensus":      "ROADMAP 16: consensus through Figure 10's reduction",
	"btsim.WithFaults":           "part of the public btsim option set",
	"consensus.Honest":           "the zero value of the Behavior enum",
	"Sim.Run":                    "the fuzz scripts use its bounded run",
	"Sim.RNG":                    "tests draw random loss from the seeded stream",
	"RNG.Split":                  "tests draw random loss from the seeded stream",
	"Checker.BlockValidity":      "one accessor per consistency property; experiments call five",
	"Checker.LocalMonotonicRead": "one accessor per consistency property; experiments call five",
	"Checker.StrongPrefix":       "one accessor per consistency property; experiments call five",
	"Checker.EverGrowingTree":    "one accessor per consistency property; experiments call five",
	"Checker.EventualPrefix":     "one accessor per consistency property; experiments call five",
	"Checker.KForkCoherence":     "one accessor per consistency property; experiments call five",
	"Checker.MonotonicPrefix":    "one accessor per consistency property; experiments call five",
	"Op.Before":                  "the paper's real-time order on operations, the reference the oracle tests use (the monitor inlines it)",
	"CAS.Read":                   "ROADMAP 16: the load of Figure 9's CAS cell, one of the shared accesses its explorer schedules",
}

// TestNoTestOnlyExports enforces that an exported top-level declaration
// of the module has a non-test user: some non-test file of the module or
// of benchmark/ names it outside its own declaration (a method's receiver
// does not count). A name that only tests call is deleted or moved into a
// _test.go file, or kept in testOnlyExportKeep with its reason. A use
// from a declaration that is itself unused does not count, and a method
// is unused with its type, so a chain of helpers that only dead code
// calls fails as a whole.
//
// The check is by name, not by type: a method counts as used when any
// selector or interface method elsewhere carries its name, and a
// package-level name when its package names it bare or another package
// selects it through an import of that package. It can miss dead code;
// it reports live code only through a local name that shadows an import.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, use string // use: "." + method name, or import path + "." + name
		recv     string // a method's receiver type, as its use key
		node     ast.Node
	}
	var decls []*decl
	uses := map[string][]ast.Node{} // use key → the declarations naming it
	fset, parsed := token.NewFileSet(), 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := strings.TrimSuffix("repro/"+dir, "/.")
		inModule := dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/")
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		declare := func(key, use, recv string, node ast.Node) {
			if inModule {
				decls = append(decls, &decl{key, use, recv, node})
			}
		}
		var collect func(root, encl ast.Node)
		collect = func(root, encl ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					key := "." + x.Sel.Name
					if q, ok := x.X.(*ast.Ident); ok && imports[q.Name] != "" {
						key = imports[q.Name] + key
					} else {
						collect(x.X, encl)
					}
					uses[key] = append(uses[key], encl)
					return false
				case *ast.InterfaceType:
					for _, m := range x.Methods.List {
						for _, n := range m.Names {
							uses["."+n.Name] = append(uses["."+n.Name], encl)
						}
					}
				case *ast.Ident:
					uses[pkgPath+"."+x.Name] = append(uses[pkgPath+"."+x.Name], encl)
				}
				return true
			})
		}
		for _, top := range f.Decls {
			switch top := top.(type) {
			case *ast.FuncDecl:
				name := top.Name.Name
				if top.Recv == nil {
					if ast.IsExported(name) {
						declare(f.Name.Name+"."+name, pkgPath+"."+name, "", top)
					}
				} else if rt := recvType(top.Recv.List[0].Type); ast.IsExported(name) && ast.IsExported(rt) {
					declare(rt+"."+name, "."+name, pkgPath+"."+rt, top)
				}
				collect(top.Type, top)
				if top.Body != nil {
					collect(top.Body, top)
				}
			case *ast.GenDecl:
				for _, spec := range top.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declare(f.Name.Name+"."+s.Name.Name, pkgPath+"."+s.Name.Name, "", s)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								declare(f.Name.Name+"."+n.Name, pkgPath+"."+n.Name, "", s)
							}
						}
					}
					collect(spec, spec)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 100 {
		t.Fatalf("parsed only %d non-test files, want ≥ 100 (run from the module root)", parsed)
	}

	// Iterate to the fixed point: a declaration is dead when its
	// receiver type is, or when every use is inside itself or inside a
	// dead declaration.
	types := map[string]ast.Node{}
	for _, d := range decls {
		if _, ok := d.node.(*ast.TypeSpec); ok {
			types[d.use] = d.node
		}
	}
	dead := map[ast.Node]bool{}
	var found []string
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if dead[d.node] || testOnlyExportKeep[d.key] != "" {
				continue
			}
			if dead[types[d.recv]] || !slices.ContainsFunc(uses[d.use], func(u ast.Node) bool { return u != d.node && !dead[u] }) {
				dead[d.node], changed = true, true
				found = append(found, d.key)
			}
		}
	}
	for key := range testOnlyExportKeep {
		if !slices.ContainsFunc(decls, func(d *decl) bool { return d.key == key }) {
			t.Errorf("testOnlyExportKeep names %s, which is not an exported declaration any more", key)
		}
	}
	slices.Sort(found)
	for _, key := range found {
		t.Errorf("%s is exported but no non-test code names it: delete it, move it into a _test.go file, or keep it in testOnlyExportKeep with a reason", key)
	}
}

// recvType returns the type name of a method receiver.
func recvType(e ast.Expr) string {
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
