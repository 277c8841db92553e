package stats

import (
	"testing"
	"testing/quick"
)

func TestMsgClassNames(t *testing.T) {
	want := map[MsgClass]string{
		MsgGETS: "GETS", MsgGETX: "GETX", MsgUPGRADE: "UPGRADE",
		MsgData: "Data", MsgOther: "Other",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if len(MsgClasses()) != 5 {
		t.Fatalf("MsgClasses() has %d entries, want 5", len(MsgClasses()))
	}
}

func TestMsgCounting(t *testing.T) {
	var s Stats
	s.AddMsg(MsgGETS)
	s.AddMsg(MsgGETS)
	s.AddMsg(MsgData)
	if s.Msgs[MsgGETS] != 2 || s.Msgs[MsgData] != 1 {
		t.Fatal("AddMsg miscounted")
	}
	if s.TotalMsgs() != 3 {
		t.Fatalf("TotalMsgs = %d, want 3", s.TotalMsgs())
	}
}

func TestDistHistogramAndCDF(t *testing.T) {
	var s Stats
	s.RecordDistance(0)
	s.RecordDistance(0)
	s.RecordDistance(4)
	s.RecordDistance(70) // clamps into the ≥64 bucket
	s.RecordDistance(-3) // clamps to 0
	cdf, n := s.DistCDF()
	if n != 5 {
		t.Fatalf("samples = %d, want 5", n)
	}
	if cdf[0] != 3.0/5 {
		t.Errorf("cdf[0] = %v, want 0.6", cdf[0])
	}
	if cdf[4] != 4.0/5 {
		t.Errorf("cdf[4] = %v, want 0.8", cdf[4])
	}
	if cdf[64] != 1 {
		t.Errorf("cdf[64] = %v, want 1", cdf[64])
	}
}

func TestEmptyCDF(t *testing.T) {
	var s Stats
	cdf, n := s.DistCDF()
	if n != 0 || cdf[64] != 0 {
		t.Fatal("empty histogram must produce a zero CDF")
	}
}

// Property: the CDF is monotone nondecreasing and ends at 1 whenever any
// sample exists.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(ds []uint8) bool {
		var s Stats
		for _, d := range ds {
			s.RecordDistance(int(d) % 80)
		}
		cdf, n := s.DistCDF()
		if len(ds) == 0 {
			return n == 0
		}
		prev := 0.0
		for _, v := range cdf {
			if v < prev {
				return false
			}
			prev = v
		}
		return cdf[64] > 0.999999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
