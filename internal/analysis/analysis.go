// Package analysis is an in-repo static-analysis framework built only on
// the standard library's go/ast, go/parser, go/token, and go/types — no
// golang.org/x/tools dependency, so the module stays zero-dep and the
// checks run network-free. It exists to machine-check the invariants the
// compiler cannot see and the simulator's correctness rests on:
// bit-deterministic replay from a seed and delivery results that are not
// dropped.
//
// The three analyzers (simtime, maprange and dropresult, one file per
// rule) are syntactic: each looks at one package's typed syntax, with no
// call graph, CFG or dataflow. cmd/iocheck runs them over the whole module
// (`make lint`) and so does the repo-wide self-check test, so
// `go test ./...` enforces them too. Contracts a runtime test pins as
// tightly are tests, not rules: allocation on the hot paths (an
// AllocsPerRun budget test per hot layer), "nil means disabled" on
// fault.Schedule/Config and trace.Recorder/Span (every exported method
// called on a nil receiver), the control-round lifecycle (the core
// round-contract, stale-epoch, retry-budget and span-outcome tests),
// never parking outside a process's own body or inside a manager's
// dispatch (kernel panics), nil-checked round answers (the core
// failed-round test), and map order reached through a helper (the core
// schedule-determinism test).
//
// Audited exceptions are suppressed — but stay visible — with a comment on
// the flagged line or on the line directly above it:
//
//	//iocheck:allow <rule> <reason>
//
// The reason is mandatory; an allow comment without one is itself a
// diagnostic, and so is an allow naming a rule outside the suite, or one
// that covers no finding of its rule on a run where that rule checked the
// package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Suppressed is set when an //iocheck:allow comment covers the
	// diagnostic; suppressed findings are reported only in verbose mode
	// and never fail the run.
	Suppressed bool
	// SuppressReason is the audit trail from the allow comment.
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule.
type Analyzer struct {
	Name string
	Doc  string
	// Applies filters packages (nil = run everywhere). The golden tests
	// bypass it and call Run directly.
	Applies func(pkg *Package) bool
	Run     func(pass *Pass)
}

// Pass carries one analyzer's execution over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in a stable order: the two
// determinism rules, then the delivery-contract rule from the
// at-least-once data plane.
func Analyzers() []*Analyzer {
	return []*Analyzer{SimTime, MapRange, DropResult}
}

// Run executes the given analyzers over the packages and returns all
// diagnostics — suppressed ones included — in a total order (file, line,
// column, rule, message), so two runs over the same tree are
// byte-identical even when one position carries several findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		ran := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg) {
				continue
			}
			ran[a.Name] = true
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			out = append(out, applyAllows(pass.diags, allows)...)
		}
		out = append(out, allows.malformed...)
		out = append(out, allows.dead(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// Unsuppressed filters diags down to the findings that fail a run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// allowKey identifies one allow site: a rule allowed at a file line.
type allowKey struct {
	file string
	line int
	rule string
}

// allowSite is one well-formed allow comment; used is set once it
// suppresses a diagnostic.
type allowSite struct {
	pos    token.Position
	rule   string
	reason string
	used   bool
}

type allowSet struct {
	entries map[allowKey][]*allowSite // the allows covering a line
	sites   []*allowSite              // in comment order
	// malformed collects allow comments with no reason or with a rule
	// outside the suite; they are diagnostics in their own right so
	// audits cannot silently erode.
	malformed []Diagnostic
}

const allowMarker = "iocheck:allow"

// collectAllows scans every comment in the package for allow markers. An
// allow comment covers diagnostics on its own line and on the line
// immediately below it (the usual "comment above the flagged statement"
// placement, including the last line of a doc comment).
func collectAllows(pkg *Package) *allowSet {
	as := &allowSet{entries: make(map[allowKey][]*allowSite)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					as.malformed = append(as.malformed, Diagnostic{
						Pos:  pos,
						Rule: "allow",
						Message: "malformed //iocheck:allow comment: " +
							"need a rule name and a reason",
					})
					continue
				}
				rule := fields[0]
				if !inSuite(rule) {
					as.malformed = append(as.malformed, Diagnostic{
						Pos:  pos,
						Rule: "allow",
						Message: "//iocheck:allow " + rule +
							" names no rule in the suite; delete it",
					})
					continue
				}
				site := &allowSite{pos: pos, rule: rule,
					reason: strings.TrimSpace(strings.TrimPrefix(rest, rule))}
				as.sites = append(as.sites, site)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := allowKey{pos.Filename, line, rule}
					as.entries[key] = append(as.entries[key], site)
				}
			}
		}
	}
	return as
}

// inSuite reports whether rule names one of the analyzers in the suite.
func inSuite(rule string) bool {
	for _, a := range Analyzers() {
		if a.Name == rule {
			return true
		}
	}
	return false
}

func applyAllows(diags []Diagnostic, as *allowSet) []Diagnostic {
	for i := range diags {
		d := &diags[i]
		for _, site := range as.entries[allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}] {
			site.used = true
			d.Suppressed = true
			d.SuppressReason = site.reason
		}
	}
	return diags
}

// dead reports every allow whose rule ran on the package (ran) yet
// covered none of its diagnostics: an audit that outlived its reason.
func (as *allowSet) dead(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, site := range as.sites {
		if ran[site.rule] && !site.used {
			out = append(out, Diagnostic{
				Pos:  site.pos,
				Rule: "allow",
				Message: "//iocheck:allow " + site.rule + " suppresses no " +
					site.rule + " finding; delete it",
			})
		}
	}
	return out
}

// enclosingFuncs returns every function declaration in the file, used by
// analyzers that reason about whole function bodies.
func enclosingFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// internalPkg reports whether the package is module-internal simulation
// code (the scope of the determinism rules).
func internalPkg(pkg *Package) bool {
	return strings.Contains(pkg.PkgPath, "/internal/")
}
