package coherence

import (
	"testing"

	"ghostwriter/internal/stats"
)

func TestMsgClassification(t *testing.T) {
	cases := []struct {
		t    MsgType
		want stats.MsgClass
	}{
		{GETS, stats.MsgGETS},
		{GETX, stats.MsgGETX},
		{UPGRADE, stats.MsgUPGRADE},
		{DataS, stats.MsgData},
		{DataE, stats.MsgData},
		{DataM, stats.MsgData},
		{DataC2C, stats.MsgData},
		{DataToDir, stats.MsgData},
		{PUTM, stats.MsgData}, // carries the dirty block
		{PUTS, stats.MsgOther},
		{PUTE, stats.MsgOther},
		{Inv, stats.MsgOther},
		{InvAck, stats.MsgOther},
		{RecallOwn, stats.MsgOther},
		{RecallData, stats.MsgData},
		{Unblock, stats.MsgOther},
		{FwdGETS, stats.MsgOther},
		{FwdGETX, stats.MsgOther},
		{UpgAck, stats.MsgOther},
		{PutAck, stats.MsgOther},
	}
	for _, c := range cases {
		if got := c.t.Class(); got != c.want {
			t.Errorf("%v.Class() = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMsgCarriesData(t *testing.T) {
	withData := map[MsgType]bool{
		DataS: true, DataE: true, DataM: true, DataC2C: true,
		DataToDir: true, RecallData: true, PUTM: true,
	}
	for mt := GETS; mt <= DataC2C; mt++ {
		if got := mt.CarriesData(); got != withData[mt] {
			t.Errorf("%v.CarriesData() = %v, want %v", mt, got, withData[mt])
		}
	}
}

func TestMsgNames(t *testing.T) {
	// Every defined type must have a distinct, non-fallback name.
	seen := map[string]bool{}
	for mt := GETS; mt <= DataC2C; mt++ {
		name := mt.String()
		if name == "" || seen[name] {
			t.Errorf("type %d has bad or duplicate name %q", mt, name)
		}
		seen[name] = true
	}
	if MsgType(200).String() == "" {
		t.Error("out-of-range type should still render")
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyHybrid.String() != "hybrid" ||
		PolicyResident.String() != "resident" ||
		PolicyEscalate.String() != "escalate" {
		t.Error("policy names wrong")
	}
}

func TestStateCoverage(t *testing.T) {
	// A protocol-table sanity net: grant kinds exist and differ.
	if GrantS == GrantM || GrantNone == GrantS {
		t.Error("grant kinds must be distinct")
	}
}

// TestMsgPoolGrowsByTheChunk: an empty pool allocates msgChunk records at
// once and hands each out exactly once, zeroed; a Put record comes back
// before the pool allocates again.
func TestMsgPoolGrowsByTheChunk(t *testing.T) {
	p := &MsgPool{}
	got := make([]*Msg, 0, 2*msgChunk) // AllocsPerRun runs the loop twice
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < msgChunk; i++ {
			m := p.Get()
			if m.next != nil || m.Data != nil || m.Type != 0 || m.Addr != 0 {
				t.Fatalf("record %d not zeroed: %+v", i, *m)
			}
			m.Addr = 1 // a live message; the pool must not hand it out again
			got = append(got, m)
		}
	})
	if allocs != 1 {
		t.Errorf("%d messages cost %v allocations, want one chunk", msgChunk, allocs)
	}
	seen := map[*Msg]bool{}
	for _, m := range got {
		seen[m] = true
		p.Put(m)
	}
	if len(seen) != len(got) {
		t.Errorf("%d distinct records over %d Gets", len(seen), len(got))
	}
	if got := testing.AllocsPerRun(1, func() { p.Put(p.Get()) }); got != 0 {
		t.Errorf("a recycled message costs %v allocations", got)
	}
}
