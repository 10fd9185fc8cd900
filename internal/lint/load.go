package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the full import path, e.g. "repro/internal/geo".
	ImportPath string
	// Key is the short layering key: the module-relative directory without
	// the "internal/" prefix for internal packages ("geo", "sed", ...),
	// otherwise "".
	Key string

	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TestOnly marks packages that exist only because tests were loaded
	// (the augmented base+_test.go package and external *_test packages).
	// Findings they produce in non-test files duplicate the base package's
	// and are suppressed centrally in Run.
	TestOnly bool
}

// Internal reports whether the package lives under internal/.
func (p *Package) Internal() bool { return p.Key != "" }

// Module is the fully loaded and type-checked module tree.
type Module struct {
	Root string // absolute filesystem root (directory holding go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	// Packages in dependency (topological) order.
	Packages []*Package

	byPath map[string]*Package
	// allows maps "relfile:line" → set of analyzer names suppressed there
	// by //lint:allow annotations.
	allows map[string]map[string]bool
	// testFiles holds the module-relative paths of the _test.go files.
	testFiles map[string]bool
	// augOf maps an import path to its augmented (base+in-package-test)
	// package, so external foo_test packages type-check against the same
	// view of foo that `go test` compiles them with (in-package test
	// helpers like export_test.go definitions are visible to them).
	augOf map[string]*Package
}

// Load parses and type-checks every package under root, which must contain
// a go.mod, together with its _test.go files. Directories named testdata,
// vendor, or starting with "." or "_" are skipped. Test files in package foo
// join a separate "augmented" copy of package foo (the base package stays
// test-free, so analysis of production code is unchanged); files in package
// foo_test become their own package importing the checked base. Both are
// marked TestOnly.
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:      root,
		Path:      modPath,
		Fset:      token.NewFileSet(),
		byPath:    make(map[string]*Package),
		allows:    make(map[string]map[string]bool),
		testFiles: make(map[string]bool),
		augOf:     make(map[string]*Package),
	}
	if err := m.parseTree(); err != nil {
		return nil, err
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module path in %s", gomod)
}

func (m *Module) parseTree() error {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if err := m.parseDir(dir); err != nil {
			return err
		}
	}
	return nil
}

func (m *Module) parseDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	var files, testFs []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		m.scanAllows(f)
		if isTest {
			m.testFiles[m.relFile(filepath.Join(dir, name))] = true
			testFs = append(testFs, f)
		} else {
			files = append(files, f)
		}
	}
	if len(files) == 0 && len(testFs) == 0 {
		return nil
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + rel
	}
	key := strings.TrimPrefix(rel, "internal/")
	if !strings.HasPrefix(rel, "internal/") {
		key = ""
	}
	var base *Package
	if len(files) > 0 {
		base = &Package{
			ImportPath: importPath,
			Key:        key,
			Files:      files,
		}
		m.Packages = append(m.Packages, base)
		m.byPath[importPath] = base
	}
	if len(testFs) == 0 {
		return nil
	}
	// Split test files into in-package (package foo) and external
	// (package foo_test) sets.
	var inPkg, external []*ast.File
	for _, f := range testFs {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	if len(inPkg) > 0 && base != nil {
		// The augmented package is a leaf: it re-checks the base sources
		// together with the test files, is never imported by anything, and
		// so cannot create an import cycle even when a test imports a
		// package that itself imports the base.
		aug := &Package{
			ImportPath: importPath,
			Key:        key,
			Files:      append(append([]*ast.File{}, files...), inPkg...),
			TestOnly:   true,
		}
		m.Packages = append(m.Packages, aug)
		m.augOf[importPath] = aug
	}
	if len(external) > 0 {
		ext := &Package{
			ImportPath: importPath + "_test",
			Key:        key,
			Files:      external,
			TestOnly:   true,
		}
		m.Packages = append(m.Packages, ext)
	}
	return nil
}

// scanAllows records //lint:allow annotations. An annotation suppresses
// diagnostics of the named analyzer on its own line and on the line
// immediately following its comment group (so a comment block directly above
// a statement covers that statement).
func (m *Module) scanAllows(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), "//lint:allow ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			pos := m.Fset.Position(c.Pos())
			end := m.Fset.Position(cg.End())
			m.addAllow(pos.Filename, pos.Line, fields[0])
			m.addAllow(pos.Filename, end.Line+1, fields[0])
		}
	}
}

func (m *Module) addAllow(file string, line int, analyzer string) {
	key := m.relFile(file) + ":" + strconv.Itoa(line)
	set := m.allows[key]
	if set == nil {
		set = make(map[string]bool)
		m.allows[key] = set
	}
	set[analyzer] = true
}

// allowed reports whether an annotation suppresses analyzer at file:line.
func (m *Module) allowed(file string, line int, analyzer string) bool {
	return m.allows[file+":"+strconv.Itoa(line)][analyzer]
}

func (m *Module) relFile(file string) string {
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// position converts a token.Pos into a module-relative (file, line, col).
func (m *Module) position(pos token.Pos) (string, int, int) {
	p := m.Fset.Position(pos)
	return m.relFile(p.Filename), p.Line, p.Column
}

// moduleImporter resolves module-internal imports from the already-checked
// package set and everything else (the standard library) through the
// compiler source importer, so the loader needs no toolchain export data.
type moduleImporter struct {
	m   *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := mi.m.byPath[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p.Types, nil
	}
	if from, ok := mi.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return mi.std.Import(path)
}

// selfTestImporter redirects one import path — an external test package's
// own base package — to the augmented copy that includes the in-package
// test files; every other import goes through the normal chain.
type selfTestImporter struct {
	next *moduleImporter
	path string
	aug  *types.Package
}

func (si *selfTestImporter) Import(path string) (*types.Package, error) {
	return si.ImportFrom(path, "", 0)
}

func (si *selfTestImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == si.path {
		return si.aug, nil
	}
	return si.next.ImportFrom(path, dir, mode)
}

// check type-checks every package in dependency order.
func (m *Module) check() error {
	order, err := m.topoOrder()
	if err != nil {
		return err
	}
	imp := &moduleImporter{m: m, std: importer.ForCompiler(m.Fset, "source", nil)}
	for _, p := range order {
		// An external foo_test package sees the augmented foo (with its
		// in-package test files), mirroring how `go test` links them.
		pkgImp := types.Importer(imp)
		if base, ok := strings.CutSuffix(p.ImportPath, "_test"); ok && p.TestOnly {
			if aug := m.augOf[base]; aug != nil && aug.Types != nil {
				pkgImp = &selfTestImporter{next: imp, path: base, aug: aug.Types}
			}
		}
		var firstErr error
		conf := types.Config{
			Importer: pkgImp,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		tp, err := conf.Check(p.ImportPath, m.Fset, p.Files, info)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if firstErr != nil {
			return fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, firstErr)
		}
		p.Types = tp
		p.Info = info
	}
	m.Packages = order
	return nil
}

// topoOrder sorts packages so every package follows its in-module imports.
func (m *Module) topoOrder() ([]*Package, error) {
	const (
		unseen = iota
		visiting
		done
	)
	state := make(map[*Package]int, len(m.Packages))
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case visiting:
			return fmt.Errorf("lint: import cycle involving %s", p.ImportPath)
		case done:
			return nil
		}
		state[p] = visiting
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep, ok := m.byPath[path]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p] = done
		order = append(order, p)
		return nil
	}
	for _, p := range m.Packages {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
