package photonrail

import (
	"fmt"
	"reflect"
	"testing"

	"photonrail/internal/exp"
)

// keyField names how the completeness walk treats a field that is not
// a plain value: Params.Grid is dereferenced (ExperimentKey encodes the
// spec it points at), Params.OnProgress is excluded (observational),
// and Grid.Name is ignored: walked and perturbed like any leaf, but
// perturbing it must leave every key unchanged (a plan serves every
// grid that differs only in name).
type keyField int

const (
	keyDeref keyField = iota + 1
	keyExcluded
	keyIgnored
)

// keyedType is one type whose keys the completeness test checks.
type keyedType struct {
	name   string
	typ    reflect.Type
	fields map[string]keyField // by path from the type, e.g. "Grid"
	keys   map[string]func(v reflect.Value) string
}

func keyedTypes() []keyedType {
	workload := func(v reflect.Value) Workload { return v.Interface().(Workload) }
	return []keyedType{
		{
			name: "Workload",
			typ:  reflect.TypeOf(Workload{}),
			keys: map[string]func(reflect.Value) string{
				"time": func(v reflect.Value) string {
					k := keysOf(workload(v))
					return k.time(Fabric{Kind: PhotonicRail, ReconfigLatencyMS: 10})
				},
				"build": func(v reflect.Value) string {
					k := keysOf(workload(v))
					return k.build()
				},
				"provision": func(v reflect.Value) string {
					k := keysOf(workload(v))
					return k.provision(10)
				},
				"traced": func(v reflect.Value) string {
					k := keysOf(workload(v))
					return k.traced()
				},
				"seed": func(v reflect.Value) string {
					k := keysOf(workload(v))
					return k.seed()
				},
			},
		},
		{
			name: "Fabric",
			typ:  reflect.TypeOf(Fabric{}),
			keys: map[string]func(reflect.Value) string{
				"time": func(v reflect.Value) string {
					k := keysOf(PaperWorkload(2))
					return k.time(v.Interface().(Fabric))
				},
			},
		},
		{
			name: "scenario.Spec",
			typ:  reflect.TypeOf(GridSpec{}),
			keys: map[string]func(reflect.Value) string{
				"spec": func(v reflect.Value) string {
					e := exp.NewKeyEncoder("spec")
					v.Interface().(GridSpec).AppendKey(&e)
					return e.Sum("")
				},
			},
		},
		{
			name:   "Grid",
			typ:    reflect.TypeOf(Grid{}),
			fields: map[string]keyField{"Name": keyIgnored},
			keys: map[string]func(reflect.Value) string{
				"plan": func(v reflect.Value) string {
					return planKey(v.Interface().(Grid))
				},
			},
		},
		{
			name:   "Params",
			typ:    reflect.TypeOf(Params{}),
			fields: map[string]keyField{"Grid": keyDeref, "OnProgress": keyExcluded},
			keys: map[string]func(reflect.Value) string{
				"experiment": func(v reflect.Value) string {
					return ExperimentKey("fig8-5d", v.Interface().(Params))
				},
			},
		},
	}
}

// keyWalk visits a keyed value's perturbation sites in a fixed order:
// every exported leaf (string, integer, float, bool), every slice
// element's leaves, and one growth per slice. When site n is target it
// applies that perturbation. A field the key cannot encode canonically
// — a pointer, map, func, chan, interface or unexported field — fails
// the test unless kt.fields documents it.
type keyWalk struct {
	t        *testing.T
	kt       keyedType
	target   int
	n        int
	paths    []string
	ignored  []bool // per site: inside a keyIgnored field
	ignoring bool
	seq      int // populate's running value
}

// site records one perturbation site and reports whether it is the
// target.
func (w *keyWalk) site(path string) bool {
	w.paths = append(w.paths, path)
	w.ignored = append(w.ignored, w.ignoring)
	w.n++
	return w.n-1 == w.target
}

// walk visits v (settable) at path; populate fills every leaf with a
// distinct non-zero value and every slice with two elements first.
func (w *keyWalk) walk(v reflect.Value, path string, populate bool) {
	switch v.Kind() {
	case reflect.String:
		if populate {
			w.seq++
			v.SetString(fmt.Sprintf("s%d", w.seq))
		}
		if w.site(path) {
			v.SetString(v.String() + "'")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if populate {
			w.seq++
			v.SetInt(int64(w.seq))
		}
		if w.site(path) {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Float32, reflect.Float64:
		if populate {
			w.seq++
			v.SetFloat(float64(w.seq) + 0.5)
		}
		if w.site(path) {
			v.SetFloat(v.Float() + 1)
		}
	case reflect.Bool:
		if populate {
			v.SetBool(true)
		}
		if w.site(path) {
			v.SetBool(!v.Bool())
		}
	case reflect.Slice:
		if populate {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), populate)
		}
		if w.site(path + " (grown)") {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			fpath := f.Name
			if path != "" {
				fpath = path + "." + f.Name
			}
			if !f.IsExported() {
				w.fail("unexported field %s cannot be perturbed; keyed types carry exported fields only", fpath)
				continue
			}
			switch w.kt.fields[fpath] {
			case keyExcluded:
				continue
			case keyIgnored:
				w.ignoring = true
				w.walk(v.Field(i), fpath, populate)
				w.ignoring = false
				continue
			case keyDeref:
				if populate {
					v.Field(i).Set(reflect.New(f.Type.Elem()))
				}
				w.walk(v.Field(i).Elem(), fpath, populate)
				continue
			}
			w.walk(v.Field(i), fpath, populate)
		}
	default:
		w.fail("field %s is a %s; a key must not depend on a memory address or on code, so keyed types hold values only", path, v.Kind())
	}
}

// fail reports a field the key cannot encode, once: on the walk that
// applies no perturbation.
func (w *keyWalk) fail(format string, args ...any) {
	if w.target < 0 {
		w.t.Errorf(w.kt.name+": "+format, args...)
	}
}

// freshKeyed returns a fully populated value of kt's type, with perturbation
// site target applied (none for -1), and the walk that built it.
func freshKeyed(t *testing.T, kt keyedType, target int) (reflect.Value, *keyWalk) {
	w := &keyWalk{t: t, kt: kt, target: target}
	v := reflect.New(kt.typ).Elem()
	w.walk(v, "", true)
	return v, w
}

// TestKeyCompleteness perturbs every exported leaf of every keyed type
// — recursing into nested structs and slice elements, and growing each
// slice — and requires every key built from the type to change. A
// field added later without being encoded fails here, as does a
// pointer, map, func, chan or interface field (Params.Grid and
// Params.OnProgress are the documented exceptions). A field the key
// ignores by design (Grid.Name) must leave every key unchanged.
func TestKeyCompleteness(t *testing.T) {
	for _, kt := range keyedTypes() {
		t.Run(kt.name, func(t *testing.T) {
			base, w := freshKeyed(t, kt, -1)
			if w.n == 0 {
				t.Fatal("no perturbation sites")
			}
			baseKeys := make(map[string]string, len(kt.keys))
			again, _ := freshKeyed(t, kt, w.n) // no such site: unperturbed
			for name, key := range kt.keys {
				baseKeys[name] = key(base)
				if key(again) != baseKeys[name] {
					t.Fatalf("%s key is not deterministic", name)
				}
			}
			for i, path := range w.paths {
				v, _ := freshKeyed(t, kt, i)
				for name, key := range kt.keys {
					switch changed := key(v) != baseKeys[name]; {
					case w.ignored[i] && changed:
						t.Errorf("perturbing %s changed the %s key, which ignores it", path, name)
					case !w.ignored[i] && !changed:
						t.Errorf("perturbing %s did not change the %s key", path, name)
					}
				}
			}
		})
	}
}

// TestKeyNilEqualsEmpty checks that a nil and an empty list give the
// same key, for every list a key encodes: both mean the default
// (SweepReconfigLatencyCtx and Grid.withDefaults treat them alike), and
// the wire omits empty lists. A nil Params.Grid keys like an empty spec.
func TestKeyNilEqualsEmpty(t *testing.T) {
	for _, kt := range keyedTypes() {
		for name, key := range kt.keys {
			zero := reflect.New(kt.typ).Elem()
			want := key(zero)
			forEachSlice(zero, "", func(path string, s reflect.Value) {
				v := reflect.New(kt.typ).Elem()
				forEachSlice(v, "", func(p string, s reflect.Value) {
					if p == path {
						s.Set(reflect.MakeSlice(s.Type(), 0, 0))
					}
				})
				if got := key(v); got != want {
					t.Errorf("%s: an empty %s changes the %s key", kt.name, path, name)
				}
			})
		}
	}
	if ExperimentKey("grid", Params{}) != ExperimentKey("grid", Params{Grid: &GridSpec{}}) {
		t.Error("a nil Params.Grid keys differently from an empty spec")
	}
}

// forEachSlice calls fn on every slice field of v, following Params.Grid
// into the spec (allocating it when nil).
func forEachSlice(v reflect.Value, path string, fn func(path string, s reflect.Value)) {
	switch v.Kind() {
	case reflect.Slice:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			fpath := f.Name
			if path != "" {
				fpath = path + "." + f.Name
			}
			if f.Type == reflect.TypeOf((*GridSpec)(nil)) {
				if v.Field(i).IsNil() {
					v.Field(i).Set(reflect.New(f.Type.Elem()))
				}
				forEachSlice(v.Field(i).Elem(), fpath, fn)
				continue
			}
			forEachSlice(v.Field(i), fpath, fn)
		}
	}
}

// TestOnProgressExcludedFromKey checks that the observational callback
// does not reach the experiment key.
func TestOnProgressExcludedFromKey(t *testing.T) {
	p := Params{Iterations: 2}
	want := ExperimentKey("fig8", p)
	p.OnProgress = func(done, total int) {}
	if got := ExperimentKey("fig8", p); got != want {
		t.Fatalf("OnProgress changed the key: %s != %s", got, want)
	}
}

// TestGoldenKeyVectors pins the hex of representative keys, so any
// change to a key's encoding is deliberate: it must update this table.
// A change to a durable key must also bump exp.KeyVersion, since
// ExperimentKey addresses results in the store; the stage keys (build,
// time) address only the in-process memo, so changing one alone bumps
// nothing.
func TestGoldenKeyVectors(t *testing.T) {
	spec := SpecOfGrid(Fig8Grid5D())
	w := keysOf(PaperWorkload(2))
	for _, tc := range []struct {
		name, got, want string
	}{
		{"ExperimentKey fig8-5d", ExperimentKey("fig8-5d", Params{}),
			"aa2f7f8564e76f473f1debec004dbe56b03c0067e983d43833ce318525d77fdc"},
		{"ExperimentKey fig8-5d with its grid spec", ExperimentKey("fig8-5d", Params{Grid: &spec}),
			"bf3fae61f80579980f83831dd363e002de2d8e5f1ba310bd5ebed3d28009b7d6"},
		{"ExperimentKey fig8 at 1 and 10 ms", ExperimentKey("fig8", Params{LatenciesMS: []float64{1, 10}}),
			"ba4e68230b596ffb590b81dcec2573162f877b04d6abeaa9b647d9672e282840"},
		{"build", w.build(),
			"build:6c1d6cb9e753c9551e22805264cea441db09050154ce04de8b86204ad8c43c68"},
		{"time electrical", w.time(Fabric{Kind: ElectricalRail}),
			"time:d586fe18231446cb6468fee316578f492d1100dd0380ad380d0985808d76b87f"},
		{"time photonic at 10 ms", w.time(Fabric{Kind: PhotonicRail, ReconfigLatencyMS: 10}),
			"time:b8eb08f1cd5836c3db6ad1bb93000e0d3b03de33148780e1b6cdf0b9d6f37a46"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
	// The address the fig8-5d result had before this key format, when
	// keys hashed %#v renderings: a store written then reads as a miss.
	if ExperimentKey("fig8-5d", Params{}) == "4fead5dc42acbcfc1fb6b2b7ad0cbff448f1394e590c2dc064cc6fdfe10d8260" {
		t.Error("fig8-5d keeps its pre-versioned address")
	}
}
