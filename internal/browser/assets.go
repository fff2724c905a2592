package browser

import (
	"sync"

	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/js"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// obsScriptCompiles counts bytecode compiles performed while building page
// assets. This stays at one per distinct script; a climbing rate means pages
// are being churned.
var obsScriptCompiles = obs.Default().Counter("greenweb_assets_script_compiles_total",
	"Scripts compiled to bytecode while building page assets")

// pageAssets is the parse-once product of one page source: the HTML document
// as an immutable template, the parsed stylesheets, and the parsed script
// ASTs. A sweep executes the same dozen pages hundreds of times across
// cells and fleet workers; the real tokenizing/tree-building work is
// identical every time, so it is done once per process and shared.
//
// Everything here is immutable after construction and safe to share across
// goroutines: engines receive a Clone of the template (never the template
// itself), stylesheets are only read by the cascade (their rule index is
// published through an atomic pointer), and script ASTs are read-only to the
// interpreter.
//
// The *simulated* parse cost is charged exactly as before from the byte
// counts (ParseCyclesPerByte), which do not depend on whether this process
// re-parsed the text — reported energy and latency are byte-for-byte
// identical on a cold or a warm cache.
type pageAssets struct {
	tmpl      *dom.Document
	sheets    []*css.Stylesheet
	dropped   int // malformed CSS rules skipped by the tolerant parser
	scripts   []string
	programs  []*js.Program // parallel to scripts; nil where parsing failed
	parseErrs []error       // parallel to scripts; the error where nil above

	// compiled is the bytecode form of each program, built once alongside the
	// parse. Compilation is pure (no interpreter state), so a shared compile
	// is as safe as the shared AST; a tree-walking engine reads the AST
	// instead. nil where the parse failed.
	compiled []*js.CompiledProgram
}

var assetCache sync.Map // page source -> *pageAssets

// ResetAssetCache drops every cached parse. Benchmarks use it to measure
// the cold path, and the report parity test to prove a cold cache renders
// the same bytes as a warm one.
func ResetAssetCache() {
	assetCache.Range(func(k, _ any) bool {
		assetCache.Delete(k)
		return true
	})
}

// buildAssets parses a page source into its assets and compiles each script
// to bytecode.
func buildAssets(src string) *pageAssets {
	a := &pageAssets{tmpl: html.Parse(src)}
	for _, styleSrc := range html.StyleSources(a.tmpl) {
		sheet, errs := css.Parse(styleSrc) // tolerate bad rules like engines do
		a.dropped += len(errs)
		a.sheets = append(a.sheets, sheet)
	}
	a.scripts = html.ScriptSources(a.tmpl)
	a.programs = make([]*js.Program, len(a.scripts))
	a.parseErrs = make([]error, len(a.scripts))
	a.compiled = make([]*js.CompiledProgram, len(a.scripts))
	for i, s := range a.scripts {
		a.programs[i], a.parseErrs[i] = js.Parse(s)
		if a.programs[i] != nil {
			a.compiled[i] = js.Compile(a.programs[i])
			obsScriptCompiles.Inc()
		}
	}
	return a
}

// assetsFor returns the assets for a page source, parsing at most once per
// process. The second result reports whether the parse was served from the
// cache. Concurrent first loads of the same source may both build; LoadOrStore
// keeps one winner and the loser's work is discarded — cheaper than holding a
// lock across a parse.
func assetsFor(src string) (*pageAssets, bool) {
	if v, ok := assetCache.Load(src); ok {
		return v.(*pageAssets), true
	}
	a := buildAssets(src)
	actual, loaded := assetCache.LoadOrStore(src, a)
	return actual.(*pageAssets), loaded
}
