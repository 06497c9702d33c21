package sweep

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/probe"
	"repro/internal/scenario"
)

// Flatten projects every numeric field of a scenario.Result into a flat
// key->float64 map, so the aggregation layer can summarise *any* result field
// across seed replicates without per-field plumbing. Keys mirror the result's
// JSON shape: struct fields use their json tag name (Go name when untagged,
// as with the embedded stats structs), slices index as name[i], and anonymous
// embedded structs inline, e.g.
//
//	flows[0].throughput_kbps   links[1].QueueDrops   cms[0].GrantsIssued
//
// Numeric conversion: integers and floats as-is, bools as 0/1,
// time.Duration as seconds. Strings are skipped.
//
// On top of the raw projection, Flatten adds derived whole-run totals under
// the reserved "total." prefix (the default campaign metrics):
//
//	total.delivered_bytes   total.goodput_kbps   total.completed
//	total.flows             total.retransmissions  total.timeouts
//	total.queue_drops       total.bernoulli_drops  total.burst_drops
//	total.down_drops        total.forwarded_packets
//
// Probe series are not walked point by point (a long run would explode the
// key space); each series instead contributes its summary under the reserved
// "probe." prefix:
//
//	probe.<name>.mean  probe.<name>.min  probe.<name>.max
//	probe.<name>.last  probe.<name>.samples
func Flatten(res *scenario.Result) map[string]float64 {
	return FlattenWhere(res, nil)
}

// FlattenWhere is Flatten restricted to the entries whose value satisfies keep
// (nil keeps everything). A key string is built only for an entry that is
// kept, so a filter that keeps next to nothing — the invariant checker asking
// for negative values — pays for the walk and not for the map.
func FlattenWhere(res *scenario.Result, keep func(v float64) bool) map[string]float64 {
	f := flattener{out: make(map[string]float64), keep: keep}
	f.value(reflect.ValueOf(res).Elem())
	for i := range res.Series {
		s := &res.Series[i]
		sum := s.Summary()
		prefix := "probe." + s.Name
		f.put(prefix+".mean", sum.Mean)
		f.put(prefix+".min", sum.Min)
		f.put(prefix+".max", sum.Max)
		f.put(prefix+".last", sum.Last)
		f.put(prefix+".samples", float64(sum.Samples))
	}

	t := res.Totals()
	var goodput float64
	if secs := t.EndTime.Seconds(); secs > 0 {
		goodput = float64(t.DeliveredBytes) / secs / 1024
	}
	f.put("total.delivered_bytes", float64(t.DeliveredBytes))
	f.put("total.goodput_kbps", goodput)
	f.put("total.completed", float64(t.CompletedFlows))
	f.put("total.flows", float64(len(res.Flows)))
	f.put("total.retransmissions", float64(t.Retransmissions))
	f.put("total.timeouts", float64(t.Timeouts))
	f.put("total.queue_drops", float64(t.QueueDrops))
	f.put("total.bernoulli_drops", float64(t.BernoulliDrops))
	f.put("total.burst_drops", float64(t.BurstDrops))
	f.put("total.down_drops", float64(t.DownDrops))
	f.put("total.forwarded_packets", float64(t.ForwardedPackets))
	return f.out
}

var (
	durationType    = reflect.TypeOf(time.Duration(0))
	seriesSliceType = reflect.TypeOf([]probe.Series(nil))
)

// flattener walks a result depth-first, keeping the key of the value it is
// at in one reused buffer: descending appends a path element, returning
// truncates, and only a kept leaf turns the buffer into a string.
type flattener struct {
	key  []byte
	out  map[string]float64
	keep func(v float64) bool
}

func (f *flattener) kept(v float64) bool { return f.keep == nil || f.keep(v) }

// put records a derived value under a ready-made key.
func (f *flattener) put(key string, v float64) {
	if f.kept(v) {
		f.out[key] = v
	}
}

// leaf records a walked value under the key the buffer holds.
func (f *flattener) leaf(v float64) {
	if f.kept(v) {
		f.out[string(f.key)] = v
	}
}

func (f *flattener) value(v reflect.Value) {
	if v.Type() == seriesSliceType {
		return // summarised under "probe." by FlattenWhere, never walked raw
	}
	base := len(f.key)
	switch v.Kind() {
	case reflect.Struct:
		for _, fld := range flatFieldsOf(v.Type()) {
			if !fld.inline {
				if base > 0 {
					f.key = append(f.key, '.')
				}
				f.key = append(f.key, fld.name...)
			}
			f.value(v.Field(fld.index))
			f.key = f.key[:base]
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.Len() > 0 {
			if plan := flatPlanOf(v.Type().Elem()); plan != nil {
				f.planned(v, plan)
				return
			}
		}
		for i := 0; i < v.Len(); i++ {
			f.key = append(f.key, '[')
			f.key = strconv.AppendInt(f.key, int64(i), 10)
			f.key = append(f.key, ']')
			f.value(v.Index(i))
			f.key = f.key[:base]
		}
	case reflect.Pointer:
		if !v.IsNil() {
			f.value(v.Elem())
		}
	case reflect.Bool:
		if v.Bool() {
			f.leaf(1)
		} else {
			f.leaf(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() == durationType {
			f.leaf(time.Duration(v.Int()).Seconds())
		} else {
			f.leaf(float64(v.Int()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.leaf(float64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		f.leaf(v.Float())
	}
}

// flatField is one walked field of a struct type: its index, its key name
// (json tag name, Go name when untagged), and whether it inlines.
type flatField struct {
	index  int
	name   string
	inline bool
}

// flatFields caches the walked fields per struct type; reflect.Type.Field
// allocates on every call, and a large result has tens of thousands of
// structs of a handful of types.
var flatFields sync.Map // reflect.Type -> []flatField

func flatFieldsOf(t reflect.Type) []flatField {
	if c, ok := flatFields.Load(t); ok {
		return c.([]flatField)
	}
	var fields []flatField
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.PkgPath != "" { // unexported
			continue
		}
		name := sf.Name
		tag, tagged := sf.Tag.Lookup("json")
		if tagged {
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == "-" {
				continue
			}
			if tagName != "" {
				name = tagName
			}
		}
		// An untagged anonymous struct inlines, exactly as encoding/json
		// would inline it.
		inline := sf.Anonymous && sf.Type.Kind() == reflect.Struct && tag == ""
		fields = append(fields, flatField{index: i, name: name, inline: inline})
	}
	flatFields.Store(t, fields)
	return fields
}

// flatPlan is the walk of a struct type compiled to offsets: when every value
// the walk would reach sits at a fixed place inside the struct (numbers,
// bools and nested structs of them; strings and other unwalked kinds are
// skipped as always), a slice of such structs is read with plain loads
// instead of one reflect.Value per field. A 10 000-host result is 47 000
// structs of three such types, and the invariant checker walks all of them
// to keep, normally, nothing.
type flatPlan struct {
	size   uintptr
	leaves []flatLeaf
}

// flatLeaf is one number of a planned struct: where it is, how to read it,
// and what its key adds to the element's ("\.name" per named level).
type flatLeaf struct {
	offset   uintptr
	kind     reflect.Kind
	duration bool
	suffix   string
}

var flatPlans sync.Map // reflect.Type -> *flatPlan, nil for a type that has none

// flatPlanOf returns the plan for slices of t, or nil if t is not a struct
// or holds a slice, array or pointer the walk would have to follow.
func flatPlanOf(t reflect.Type) *flatPlan {
	if t.Kind() != reflect.Struct {
		return nil
	}
	if c, ok := flatPlans.Load(t); ok {
		return c.(*flatPlan)
	}
	plan := &flatPlan{size: t.Size()}
	if !plan.add(t, 0, "") {
		plan = nil
	}
	flatPlans.Store(t, plan)
	return plan
}

func (p *flatPlan) add(t reflect.Type, base uintptr, prefix string) bool {
	for _, fld := range flatFieldsOf(t) {
		sf := t.Field(fld.index)
		suffix := prefix
		if !fld.inline {
			suffix += "." + fld.name
		}
		switch sf.Type.Kind() {
		case reflect.Struct:
			if !p.add(sf.Type, base+sf.Offset, suffix) {
				return false
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			return false
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			p.leaves = append(p.leaves, flatLeaf{
				offset:   base + sf.Offset,
				kind:     sf.Type.Kind(),
				duration: sf.Type == durationType,
				suffix:   suffix,
			})
		}
	}
	return true
}

// planned walks a non-empty slice of planned structs.
func (f *flattener) planned(v reflect.Value, plan *flatPlan) {
	base := len(f.key)
	first := v.UnsafePointer()
	for i, n := 0, v.Len(); i < n; i++ {
		elem := unsafe.Add(first, uintptr(i)*plan.size)
		for li := range plan.leaves {
			leaf := &plan.leaves[li]
			x := leaf.load(unsafe.Add(elem, leaf.offset))
			if !f.kept(x) {
				continue
			}
			f.key = append(f.key, '[')
			f.key = strconv.AppendInt(f.key, int64(i), 10)
			f.key = append(f.key, ']')
			f.key = append(f.key, leaf.suffix...)
			f.out[string(f.key)] = x
			f.key = f.key[:base]
		}
	}
}

// load reads the leaf at p with the conversion value applies to its kind.
func (l *flatLeaf) load(p unsafe.Pointer) float64 {
	switch l.kind {
	case reflect.Bool:
		if *(*bool)(p) {
			return 1
		}
		return 0
	case reflect.Int:
		return float64(*(*int)(p))
	case reflect.Int8:
		return float64(*(*int8)(p))
	case reflect.Int16:
		return float64(*(*int16)(p))
	case reflect.Int32:
		return float64(*(*int32)(p))
	case reflect.Int64:
		if l.duration {
			return (*(*time.Duration)(p)).Seconds()
		}
		return float64(*(*int64)(p))
	case reflect.Uint:
		return float64(*(*uint)(p))
	case reflect.Uint8:
		return float64(*(*uint8)(p))
	case reflect.Uint16:
		return float64(*(*uint16)(p))
	case reflect.Uint32:
		return float64(*(*uint32)(p))
	case reflect.Uint64:
		return float64(*(*uint64)(p))
	case reflect.Float32:
		return float64(*(*float32)(p))
	default: // reflect.Float64
		return *(*float64)(p)
	}
}

// selectKeys returns, sorted, every key present in any of the flattened maps
// that matches at least one pattern. Patterns are literal keys with *
// wildcards matching any run of characters ("flows[*].delivered",
// "total.*").
func selectKeys(flats []map[string]float64, patterns []string) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, f := range flats {
		for k := range f {
			if seen[k] {
				continue
			}
			seen[k] = true
			for _, p := range patterns {
				if globMatch(p, k) {
					keys = append(keys, k)
					break
				}
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// globMatch matches s against a pattern whose * wildcards span any run of
// characters (including none).
func globMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, mid := range parts[1 : len(parts)-1] {
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}
