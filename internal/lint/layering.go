package lint

import (
	"fmt"
	"strconv"
	"strings"
)

// layering keeps the declarative internal-package dependency table
// (Config.LayerRules) equal to the import graph: a package may import only
// what its row allows, and a row may allow only what a non-test file of the
// package imports, so an edge that lost its last user is a finding and not
// a standing permission. Only packages under internal/ are constrained; the
// facade and cmd/ trees may import any internal package (the Go toolchain
// already fences them from other modules). Rows without a package are
// reported by staleLayerRows.
func layering(m *Module, p *Package, cfg *Config) []Diagnostic {
	if !p.Internal() || len(cfg.LayerRules) == 0 {
		return nil
	}
	allowed, registered := cfg.LayerRules[p.Key]
	var out []Diagnostic
	if !registered {
		file, line, col := m.position(p.Files[0].Package)
		out = append(out, Diagnostic{
			File: file, Line: line, Col: col,
			Message: fmt.Sprintf("internal package %q is not registered in the layering rules table; add it and its allowed dependencies to the LayerRules config", p.Key),
		})
		return out
	}
	allowedSet := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		allowedSet[a] = true
	}
	prefix := m.Path + "/internal/"
	used := make(map[string]bool, len(allowed))
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			dep, ok := strings.CutPrefix(path, prefix)
			if !ok {
				continue
			}
			if allowedSet[dep] {
				used[dep] = true
				continue
			}
			file, line, col := m.position(spec.Pos())
			out = append(out, Diagnostic{
				File: file, Line: line, Col: col,
				Message: fmt.Sprintf("layering violation: package %s may not import internal/%s (allowed: %s)",
					p.Key, dep, formatAllowed(allowed)),
			})
		}
	}
	if !p.TestOnly { // the base package's files are exactly its non-test files
		file, line, col := m.position(p.Files[0].Package)
		for _, a := range allowed {
			if !used[a] {
				out = append(out, Diagnostic{
					File: file, Line: line, Col: col,
					Message: fmt.Sprintf("unused layering edge: the rules table allows package %s to import internal/%s but no non-test file does; drop it from the row", p.Key, a),
				})
			}
		}
	}
	return out
}

// staleLayerRows reports the rows of the rules table that name no package
// of the module. It is the one module-level layering check; the finding is
// anchored at go.mod because the table is configuration, not source.
func staleLayerRows(m *Module, cfg *Config) []Diagnostic {
	exists := make(map[string]bool, len(m.Packages))
	for _, p := range m.Packages {
		exists[p.Key] = true
	}
	var out []Diagnostic
	for key := range cfg.LayerRules {
		if !exists[key] {
			out = append(out, Diagnostic{
				Analyzer: "layering", File: "go.mod", Line: 1, Col: 1,
				Message: fmt.Sprintf("stale layering row: the rules table has a row for internal package %q, which does not exist; delete the row", key),
			})
		}
	}
	return out
}

func formatAllowed(allowed []string) string {
	if len(allowed) == 0 {
		return "no internal packages"
	}
	return strings.Join(allowed, ", ")
}
