package harness

import (
	"reflect"
	"testing"

	ghostwriter "ghostwriter"
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
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 4, false, ghostwriter.PolicyHybrid)
	base := spec.effective().MachineConfig()
	baseKey := hashKey(codeVersion, spec, base)
	leaves := 0
	mc := base
	perturbLeaves(t, reflect.ValueOf(&mc), "Config", func(path string) {
		leaves++
		checkLitmus(t, path, hashKey(codeVersion, spec, mc) != baseKey)
	})
	// machine.Config currently has ~25 leaf fields; a collapse of the walk
	// (e.g. an accidental early return) must not pass silently.
	if leaves < 20 {
		t.Fatalf("litmus walk covered only %d leaves of machine.Config", leaves)
	}
	if got := hashKey(codeVersion, spec, mc); got != baseKey {
		t.Fatal("walker failed to restore the config between perturbations")
	}
}

// TestCacheKeySpecFieldSensitivity applies the same litmus to the workload
// half of the key: every Spec field (App, Scale, Threads, DDist, Profile,
// and each ghostwriter.Config knob) must reach the hash.
func TestCacheKeySpecFieldSensitivity(t *testing.T) {
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 4, false, ghostwriter.PolicyHybrid)
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

// TestCacheKeyProtocol pins the protocol plumbing's compatibility
// contract. A Spec that names no protocol serializes without the field, so
// it hashes exactly as it did before protocols were selectable — every
// pre-existing .gwcache / gwcached entry stays valid and means the legacy
// rule (d > 0 runs Ghostwriter). Explicitly naming "ghostwriter" builds the
// same machine but is a distinct cache cell, and each registered table gets
// its own key space.
func TestCacheKeyProtocol(t *testing.T) {
	legacy := specFor("linear_regression", Options{Scale: 1, Threads: 24}, 8, false, ghostwriter.PolicyHybrid)
	named := legacy
	named.Protocol = "ghostwriter"
	if legacy.effective() != named.effective() {
		t.Fatal("naming \"ghostwriter\" on a d>0 cell changed the effective config")
	}
	if legacy.Key() == named.Key() {
		t.Fatal("the protocol field does not reach the cache key")
	}

	mesi, nogi := legacy, legacy
	mesi.Protocol = "mesi"
	nogi.Protocol = "gw-noGI"
	keys := map[string]string{legacy.Key(): "legacy", named.Key(): "ghostwriter"}
	for s, n := range map[string]Spec{"mesi": mesi, "gw-noGI": nogi} {
		k := n.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s", s, prev)
		}
		keys[k] = s
	}
	if got := nogi.effective().MachineConfig().Protocol; got != "gw-noGI" {
		t.Errorf("gw-noGI spec derives machine.Config.Protocol %q", got)
	}
	// mesi and ghostwriter resolve through the legacy bool so the derived
	// machine.Config (and with it the old goldenKeys) stays byte-identical.
	if got := mesi.effective().MachineConfig().Protocol; got != "" {
		t.Errorf("mesi spec derives machine.Config.Protocol %q, want empty (legacy bool)", got)
	}
	if got := named.effective().MachineConfig().Protocol; got != "" {
		t.Errorf("ghostwriter spec derives machine.Config.Protocol %q, want empty (legacy bool)", got)
	}
}

// TestCacheKeyCodeVersion: bumping codeVersion must invalidate everything.
func TestCacheKeyCodeVersion(t *testing.T) {
	spec := specFor("histogram", Options{Scale: 1, Threads: 8}, 0, false, ghostwriter.PolicyHybrid)
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
// update the hashes (printed on failure).
var goldenKeys = []struct {
	name string
	spec func() Spec
	want string
}{
	{
		name: "histogram-baseline-t24",
		spec: func() Spec {
			return specFor("histogram", Options{Scale: 1, Threads: 24}, 0, false, ghostwriter.PolicyHybrid)
		},
		want: "ad76085fd797adbc7476bf302ad317048d8cfb5ee4e53737d9635f394e231aa6",
	},
	{
		name: "linear_regression-d8-t24",
		spec: func() Spec {
			return specFor("linear_regression", Options{Scale: 1, Threads: 24}, 8, false, ghostwriter.PolicyHybrid)
		},
		want: "0790af643a99966b7bf2ac3e329747bbc6b26c24b2ddfd69eb00fbd1a371ca6e",
	},
	{
		name: "bad_dot_product-d4-timeout512",
		spec: func() Spec {
			s := specFor("bad_dot_product", Options{Scale: 1, Threads: 24}, 4, false, ghostwriter.PolicyHybrid)
			s.Config.GITimeout = 512
			return s
		},
		want: "d38c4ed20e44dbdf6d3441949cd021e49d78ec2e47b83259a55bb0a078aa81b1",
	},
	{
		// A named protocol table: both the spec's protocol field and the
		// derived machine.Config.Protocol reach the hash.
		name: "histogram-gw-noGI-t24",
		spec: func() Spec {
			s := specFor("histogram", Options{Scale: 1, Threads: 24}, 8, false, ghostwriter.PolicyHybrid)
			s.Protocol = "gw-noGI"
			return s
		},
		want: "df2c34795b8c6c9cef3c271378c589d7e9297b9ab62b53549332f3076cb21ba1",
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
