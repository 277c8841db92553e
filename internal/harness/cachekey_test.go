package harness

import (
	"reflect"
	"testing"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/coherence/proto"
)

// perturbLeaves walks every leaf field reachable from v (a pointer to a
// struct), mutates it, calls visit with the field's path, and restores it.
// It fails the test on any field kind it cannot perturb, so adding a field
// of a new kind to machine.Config forces this battery to learn about it.
func perturbLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		perturbLeaves(t, v.Elem(), path, visit)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field would silently escape the cache key", path, f.Name)
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, visit)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			old := v.Interface()
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			visit(path)
			v.Set(reflect.ValueOf(old))
			return
		}
		perturbLeaves(t, v.Index(0), path+"[0]", visit)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		visit(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		visit(path)
		v.SetInt(old)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		old := v.Uint()
		v.SetUint(old + 1)
		visit(path)
		v.SetUint(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		visit(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		visit(path)
		v.SetString(old)
	default:
		t.Fatalf("%s: kind %s not supported by the cache-key litmus walker — teach perturbLeaves about it", path, v.Kind())
	}
}

// checkLitmus is one leaf's verdict: every field is content, so perturbing
// it must move the key.
func checkLitmus(t *testing.T, path string, changed bool) {
	t.Helper()
	if !changed {
		t.Errorf("%s: perturbing the field left the cache key unchanged — the field is missing from the key", path)
	}
}

// TestCacheKeyMachineFieldSensitivity is the cache-key litmus battery:
// changing any single machine.Config field — nested ones included — must
// change the cache hash, or stale results would be served for a different
// machine. The reflective walk means a field added to machine.Config is
// covered automatically.
func TestCacheKeyMachineFieldSensitivity(t *testing.T) {
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 4, false)
	base := spec.effective().MachineConfig()
	baseKey := hashKey(codeVersion, spec, base)
	leaves := 0
	mc := base
	perturbLeaves(t, reflect.ValueOf(&mc), "Config", func(path string) {
		leaves++
		checkLitmus(t, path, hashKey(codeVersion, spec, mc) != baseKey)
	})
	// machine.Config has 13 leaf fields (Table 1's fixed timing is
	// constants, not fields); a collapse of the walk (e.g. an accidental
	// early return) must not pass silently, and a new field must be counted
	// here on purpose.
	if leaves != 13 {
		t.Fatalf("litmus walk covered %d leaves of machine.Config, want 13", leaves)
	}
	if got := hashKey(codeVersion, spec, mc); got != baseKey {
		t.Fatal("walker failed to restore the config between perturbations")
	}
}

// TestCacheKeySpecFieldSensitivity applies the same litmus to the workload
// half of the key: every Spec field (App, Scale, Threads, DDist, Profile,
// and each ghostwriter.Config knob) must reach the hash.
func TestCacheKeySpecFieldSensitivity(t *testing.T) {
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 4, false)
	baseKey := spec.Key()
	leaves := 0
	s := spec
	perturbLeaves(t, reflect.ValueOf(&s), "Spec", func(path string) {
		leaves++
		checkLitmus(t, path, s.Key() != baseKey)
	})
	if leaves < 10 {
		t.Fatalf("litmus walk covered only %d leaves of Spec", leaves)
	}
	if s.Key() != baseKey {
		t.Fatal("walker failed to restore the spec between perturbations")
	}
}

// TestCacheKeyProtocol: every registered table gets its own key space, and
// the machine.Config a cell derives names its table. Naming "ghostwriter" on
// a d>0 cell builds the machine the unnamed cell resolves to, but is a
// distinct cache cell.
func TestCacheKeyProtocol(t *testing.T) {
	unnamed := specFor("linear_regression", Options{Scale: 1, Threads: 24}, 8, false)
	named := unnamed
	named.Config.Protocol = ghostwriter.Ghostwriter
	if unnamed.effective() != named.effective() {
		t.Fatal("naming \"ghostwriter\" on a d>0 cell changed the effective config")
	}
	keys := map[string]string{unnamed.Key(): "unnamed"}
	for _, name := range proto.Names() {
		s := unnamed
		s.Config.Protocol = ghostwriter.Protocol(name)
		if got := s.effective().MachineConfig().Protocol; got != name {
			t.Errorf("%s spec derives machine.Config.Protocol %q", name, got)
		}
		k := s.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		keys[k] = name
	}
}

// TestCacheKeyCodeVersion: bumping codeVersion must invalidate everything.
func TestCacheKeyCodeVersion(t *testing.T) {
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 0, false)
	mc := spec.effective().MachineConfig()
	if hashKey(codeVersion, spec, mc) == hashKey(codeVersion+"x", spec, mc) {
		t.Fatal("code version does not reach the cache key")
	}
}

// goldenKeys pins the exact hashes of three representative cells. If this
// test fails you changed the key derivation — a Spec or machine.Config
// field, the JSON encoding, or the hash itself. That silently orphans every
// existing cache entry (safe) but, much worse, it can mean a key field was
// REMOVED, which would let different configurations collide. Verify the
// change is deliberate, confirm the field-sensitivity tests still pass, and
// update the hashes (printed on failure). Last re-pinned when codeVersion
// went to gw-sim-v3: the GI sweep became one machine-level timer, which
// fires fewer events, and a cached RunResult carries Stats.Events. Nothing
// else simulated moved.
var goldenKeys = []struct {
	name string
	spec func() Spec
	want string
}{
	{
		name: "histogram-baseline-t24",
		spec: func() Spec {
			return specFor("histogram", Options{Scale: 1, Threads: 24}, 0, false)
		},
		want: "09d0724b227c83fa3311ef6f07062c2b2e78a45b8982efdedefead06c2b8c64c",
	},
	{
		name: "linear_regression-d8-t24",
		spec: func() Spec {
			return specFor("linear_regression", Options{Scale: 1, Threads: 24}, 8, false)
		},
		want: "5e0af3c399777898bf408cede44fdaea9d2ea795419bb0d7adf9d4854889309a",
	},
	{
		name: "bad_dot_product-d4-timeout512",
		spec: func() Spec {
			s := specFor("bad_dot_product", Options{Scale: 1, Threads: 24}, 4, false)
			s.Config.GITimeout = 512
			return s
		},
		want: "5a946aeb4233d74a64818ac98f361e50f93960033707fbe67e135caf9ffddd1a",
	},
	{
		// A named protocol table: both the spec's protocol field and the
		// derived machine.Config.Protocol reach the hash.
		name: "histogram-gw-noGI-t24",
		spec: func() Spec {
			s := specFor("histogram", Options{Scale: 1, Threads: 24}, 8, false)
			s.Config.Protocol = ghostwriter.GWNoGI
			return s
		},
		want: "b0c02a96ea6652ed0d47befea211a33da2a840d4a32c68f2a42a993b18276d6e",
	},
}

func TestCacheKeyGolden(t *testing.T) {
	seen := map[string]string{}
	for _, g := range goldenKeys {
		got := g.spec().Key()
		if got != g.want {
			t.Errorf("%s: key %s, golden %s — key derivation changed; see goldenKeys comment", g.name, got, g.want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", g.name, prev)
		}
		seen[got] = g.name
	}
}
