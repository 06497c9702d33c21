package integration

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// root is the repository root, seen from this package's directory.
const root = "../.."

// A knob is one user-facing simulation setting, named three ways:
//
//   - a JSON field of the scenario spec, by the Go type declaring it and its
//     JSON name: "dynamics.Event.delay";
//   - one value of an enumerated JSON field: "dynamics.Event.kind=link-down";
//   - an exported function, method or constant of the Congestion Manager's
//     API (internal/cm, internal/libcm): "cm.New", "cm.CM.BulkUpdate",
//     "libcm.ModeSignal".
//
// A driver reaches a JSON knob when the knob is present in the marshalled
// spec of a registry scenario at its defaults, of an expanded point of a
// committed campaign file, or of an expanded point of an internal/experiments
// campaign constructor. It reaches an API knob when non-test code outside the
// declaring package names it: a qualified reference (cm.New) for a function
// or constant, any selector of the method's name for a method. The test has
// no type information, so a common method name (Close) can be reached by a
// call of another type's method; it never misses a call.
//
// Every knob must be reached or allowlisted, and no allowlisted knob may be
// reached, so the list can only shrink.

// allowed justifies a knob no driver reaches: by names the test function or
// the repository file (a driver such as cmd/cmsim/main.go) that needs it.
type allowed struct{ by, reason string }

var knobAllowlist = map[string]allowed{
	// Defaults: a spec that leaves the field empty runs them.
	"dynamics.Event.direction=both":     {"internal/scenario/builders.go", "the default: every registry link event leaves direction empty"},
	"dynamics.Generator.direction=both": {"internal/scenario/builders.go", "the default: every registry generator leaves direction empty"},
	"scenario.Spec.route_sync=oracle":   {"internal/scenario/builders.go", "the default: every registry scenario but routeflap leaves route_sync empty"},
	"scenario.Spec.routing=exact":       {"internal/scenario/builders.go", "the default: every registry scenario but fattree and isp leaves routing empty"},

	// Events Build derives from a driver's declarations.
	"dynamics.Event.kind=cm-restart":  {"internal/scenario/builders.go", "what the churn scenario's cm-restarts generator expands into"},
	"dynamics.Event.kind=host-attach": {"internal/scenario/builders.go", "Build pairs the churn scenario's host-move with one (expandHostMoves)"},

	// Set from cmsim's command line, not from a spec file.
	"scenario.Spec.shards":         {"cmd/cmsim/main.go", "cmsim -shards; the benchmark's grid64_cm_shards2 runs it"},
	"scenario.Spec.trace_depth":    {"cmd/cmsim/main.go", "cmsim -trace-depth arms the flight recorder"},
	"scenario.Spec.snapshot_every": {"cmd/cmsim/main.go", "cmsim -snapshot-every checks invariants mid-run"},
	"probe.Spec.interval":          {"cmd/cmsim/main.go", "cmsim -probe target@interval; the failure experiment samples every 100 ms"},

	// Link, loss and generator settings the shipped specs leave at their
	// defaults but tests and sweep axes vary.
	"netsim.LinkConfig.queue_bytes":    {"TestQueueByteLimit", "a byte-limited drop-tail queue, the router buffer's other unit"},
	"netsim.GilbertElliott.loss_good":  {"TestApplyParams", "the good state's residual loss, swept as link[i].ge.loss_good"},
	"dynamics.Event.direction=fwd":     {"TestFiredEventRecords", "the forward half of an asymmetric change; rev is the shipped one"},
	"dynamics.Generator.direction":     {"TestCampaignSerialParallelByteIdentical", "a flap process on one half of a duplex"},
	"dynamics.Generator.direction=fwd": {"TestGeneratorValidate", "the forward half of a one-way flap process"},
	"dynamics.Generator.direction=rev": {"TestCampaignSerialParallelByteIdentical", "the reverse half of a one-way flap process"},
	"dynamics.Generator.seed":          {"TestApplyEventAndGeneratorParams", "generator[i].seed re-draws one process while the rest of the run keeps its seed"},
	"dynamics.Generator.start":         {"TestApplyEventAndGeneratorParams", "generator[i].start delays churn past a warm-up"},
	"dynamics.Generator.end":           {"TestGeneratorValidate", "ends churn before the run does, so a campaign can measure recovery"},
	"cm.WithGrantTimeout":              {"FuzzCMOps", "the reference CM and the grant-expiry test shorten it"},
	"cm.WithFeedbackStarvationTimeout": {"FuzzCMOps", "the reference CM and the starvation test shorten it"},
	"cm.DirectDispatcher":              {"TestCMMatchesReference", "the reference CM's in-kernel dispatcher"},
	"cm.CM.MacroflowOf":                {"TestDumbbellEnsembleSharingPerDestination", "test observation: which macroflow a flow shares"},
	"cm.CM.MacroflowTo":                {"TestFlakyDumbbellMacroflowCollapseAndReprobe", "test observation: the macroflow toward a host"},
	"cm.Macroflow.DstHost":             {"TestOpenAssignsFlowsToPerDestinationMacroflows", "test observation: a macroflow's destination"},
	"cm.Accounting.Total":              {"TestAccountingCounters", "test observation: every API call counted"},
	"cm.InvalidFlow":                   {"TestCCSocketQueryAndFlow", "the flow handle of a socket the CM refused"},
	"cm.SendCallback.CMAppSend":        {"TestAutoModeDeliversSendCallbacksAsync", "makes a callback a cm.Sender; the CM calls it through that interface"},
	"cm.ECNLoss":                       {"TestECNTreatedAsCongestionWithoutLoss", "paper-named: cm_update's ECN loss mode"},
	"cm.CM.SplitFlow":                  {"TestSplitFlowIsolatesCongestionState", "paper-named: moves a flow to a macroflow of its own"},
	"cm.CM.MergeFlows":                 {"TestMergeFlowsSharesCongestionState", "paper-named: joins two flows' macroflows"},
	"libcm.Lib.BulkUpdate":             {"TestLibUpdateNotifyQueryCountIoctls", "paper-named: cm_bulk_update, one ioctl for many flows (§5)"},
	"libcm.ModeSignal":                 {"TestSignalModeInvokesHandlerOnce", "paper-named: libcm's SIGIO notification mode"},
	"libcm.Lib.SetSignalHandler":       {"TestSignalModeInvokesHandlerOnce", "the SIGIO mode's handler"},
	"libcm.Lib.Ready":                  {"TestManualModeRequiresExplicitDispatch", "the select()-style readiness test of the manual mode"},
}

// enumBlocks maps the first constant of each block of string constants in
// the spec-declaring packages to the JSON fields those constants are values
// of. A new value in a listed block is a new knob; a new block must be added
// here.
var enumBlocks = map[string][]string{
	"dynamics.LinkDown":        {"dynamics.Event.kind"},
	"dynamics.CMRestart":       {"dynamics.Event.kind"},
	"dynamics.DirBoth":         {"dynamics.Event.direction", "dynamics.Generator.direction"},
	"dynamics.GenPoissonFlaps": {"dynamics.Generator.kind"},
	"scenario.CCCM":            {"scenario.Workload.cc"},
	"scenario.KindBulk":        {"scenario.Workload.kind"},
	"scenario.RoutingExact":    {"scenario.Spec.routing"},
	"scenario.RouteSyncOracle": {"scenario.Spec.route_sync"},
}

// enumPackages declare the spec's enumerated values; apiPackages are the
// Congestion Manager's API.
var (
	enumPackages = []string{"internal/dynamics", "internal/scenario"}
	apiPackages  = []string{"internal/cm", "internal/libcm"}
)

func TestEveryKnobHasADriver(t *testing.T) {
	knobs := make(map[string]bool)
	addJSONFields(knobs, reflect.TypeOf(scenario.Spec{}))
	enums := enumValues(t)
	for field, values := range enums {
		for _, v := range values {
			knobs[field+"="+v] = true
		}
	}
	reached := make(map[string]bool)
	for _, spec := range driverSpecs(t) {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		markJSON(reached, reflect.TypeOf(spec), doc, enums)
	}
	for _, pkg := range apiPackages {
		for k, r := range apiReach(t, pkg) {
			knobs[k] = true
			if r {
				reached[k] = true
			}
		}
	}

	names := make([]string, 0, len(knobs))
	for k := range knobs {
		names = append(names, k)
	}
	sort.Strings(names)
	nreached := 0
	for _, k := range names {
		_, listed := knobAllowlist[k]
		switch {
		case reached[k] && listed:
			t.Errorf("allowlist entry %q is stale: a driver reaches it", k)
		case !reached[k] && !listed:
			t.Errorf("no driver reaches knob %q: give it a driver, delete it, or allowlist it with the test or driver that needs it", k)
		case reached[k]:
			nreached++
		}
	}
	tests := testFuncs(t)
	for k, a := range knobAllowlist {
		if !knobs[k] {
			t.Errorf("allowlist entry %q names no knob", k)
		}
		if a.reason == "" {
			t.Errorf("allowlist entry %q gives no reason", k)
		}
		if strings.HasPrefix(a.by, "Test") || strings.HasPrefix(a.by, "Fuzz") {
			if !tests[a.by] {
				t.Errorf("allowlist entry %q names test %s, which does not exist", k, a.by)
			}
		} else if _, err := os.Stat(filepath.Join(root, a.by)); a.by == "" || err != nil {
			t.Errorf("allowlist entry %q names driver %q, which is not a repository file", k, a.by)
		}
	}
	t.Logf("%d knobs: %d reached by a driver, %d allowlisted", len(knobs), nreached, len(knobAllowlist))
}

// field is one JSON field of the spec: its knob name and Go type.
type field struct {
	id  string
	typ reflect.Type
}

// addJSONFields adds the JSON fields of every struct reachable from t, as
// encoding/json names them: embedded structs are flattened, "-" fields are
// skipped.
func addJSONFields(knobs map[string]bool, t reflect.Type) {
	t = elem(t)
	if t.Kind() != reflect.Struct {
		return
	}
	for _, f := range structFields(t) {
		if !knobs[f.id] {
			knobs[f.id] = true
			addJSONFields(knobs, f.typ)
		}
	}
}

// elem strips pointers, slices and maps down to the element type.
func elem(t reflect.Type) reflect.Type {
	for {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			t = t.Elem()
		default:
			return t
		}
	}
}

// structFields maps the JSON names of struct t to their fields.
func structFields(t reflect.Type) map[string]field {
	out := make(map[string]field)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		if f.Anonymous && tag == "" {
			for name, ef := range structFields(f.Type) {
				out[name] = ef
			}
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		out[name] = field{id: t.String() + "." + name, typ: f.Type}
	}
	return out
}

// markJSON marks every field present in doc, a decoded value of type t, and
// every enumerated value it holds.
func markJSON(reached map[string]bool, t reflect.Type, doc any, enums map[string][]string) {
	switch v := doc.(type) {
	case []any:
		for _, e := range v {
			markJSON(reached, elem(t), e, enums)
		}
	case map[string]any:
		t = elem(t)
		if t.Kind() != reflect.Struct {
			return
		}
		fields := structFields(t)
		for name, val := range v {
			f := fields[name]
			reached[f.id] = true
			if s, ok := val.(string); ok && enums[f.id] != nil {
				reached[f.id+"="+s] = true
			}
			markJSON(reached, f.typ, val, enums)
		}
	}
}

// driverSpecs returns every spec a shipped driver runs: the registry
// scenarios at their defaults, every point of the committed campaign files
// and every point of the experiments' campaign constructors.
func driverSpecs(t *testing.T) []scenario.Spec {
	var specs []scenario.Spec
	for _, name := range scenario.List() {
		s, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	campaigns := []sweep.Campaign{
		experiments.Fig3Campaign(experiments.Fig3Config{}),
		experiments.Fig4Campaign(experiments.Fig4Config{}),
		experiments.FairnessCampaign(experiments.FairnessConfig{}),
	}
	files, err := filepath.Glob(filepath.Join(root, "examples/campaigns/*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no campaign files (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sweep.DecodeCampaign(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		campaigns = append(campaigns, c)
	}
	for _, c := range campaigns {
		points, err := c.Expand()
		if err != nil {
			t.Fatalf("campaign %q: %v", c.Name, err)
		}
		for _, p := range points {
			specs = append(specs, p.Specs...)
		}
	}
	return specs
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	paths, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// enumValues maps each enumerated JSON field to its values, read from the
// string constant blocks of enumPackages.
func enumValues(t *testing.T) map[string][]string {
	out := make(map[string][]string)
	found := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range enumPackages {
		pkg := filepath.Base(dir)
		for _, f := range parseDir(t, fset, dir) {
			for _, d := range f.Decls {
				g, ok := d.(*ast.GenDecl)
				if !ok || g.Tok != token.CONST {
					continue
				}
				var first string
				var values []string
				for _, s := range g.Specs {
					vs := s.(*ast.ValueSpec)
					for i, n := range vs.Names {
						if !n.IsExported() || i >= len(vs.Values) {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						if first == "" {
							first = pkg + "." + n.Name
						}
						values = append(values, v)
					}
				}
				if first == "" {
					continue
				}
				targets, ok := enumBlocks[first]
				if !ok {
					t.Errorf("string constants from %s are values of no known knob: add the block to enumBlocks", first)
				}
				found[first] = true
				for _, field := range targets {
					out[field] = append(out[field], values...)
				}
			}
		}
	}
	for first := range enumBlocks {
		if !found[first] {
			t.Errorf("enumBlocks names %s, which starts no block of string constants", first)
		}
	}
	return out
}

// apiReach lists the exported functions, methods of exported types,
// constants and variables of the package in dir, each with whether non-test
// code outside it (internal/, cmd/, examples/, tools/ and bench/*.go) names
// it.
func apiReach(t *testing.T, dir string) map[string]bool {
	fset := token.NewFileSet()
	pkg := filepath.Base(dir)
	importPath := "repro/" + dir
	knobs := make(map[string]bool)
	methods := make(map[string][]string) // method name -> knobs
	for _, f := range parseDir(t, fset, dir) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					knobs[pkg+"."+d.Name.Name] = false
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					k := pkg + "." + id.Name + "." + d.Name.Name
					knobs[k] = false
					methods[d.Name.Name] = append(methods[d.Name.Name], k)
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if n.IsExported() {
							knobs[pkg+"."+n.Name] = false
						}
					}
				}
			}
		}
	}
	for _, file := range callerFiles(t, dir) {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
				local = pkg
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && local != "" && id.Name == local {
				if _, ok := knobs[pkg+"."+sel.Sel.Name]; ok {
					knobs[pkg+"."+sel.Sel.Name] = true
				}
				return true
			}
			for _, k := range methods[sel.Sel.Name] {
				knobs[k] = true
			}
			return true
		})
	}
	return knobs
}

// callerFiles lists the non-test Go files that may call the package in dir:
// everything under internal/, cmd/, examples/ and tools/ outside dir, and
// the top level of bench/ (its own module, read only).
func callerFiles(t *testing.T, dir string) []string {
	var out []string
	for _, top := range []string{"internal", "cmd", "examples", "tools"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && p == filepath.Join(root, dir) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				out = append(out, p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	bench, err := filepath.Glob(filepath.Join(root, "bench/*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bench {
		if !strings.HasSuffix(p, "_test.go") {
			out = append(out, p)
		}
	}
	return out
}

// testFuncs lists every Test and Fuzz function of the repository.
func testFuncs(t *testing.T) map[string]bool {
	out := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				out[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
