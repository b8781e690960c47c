package stats

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if _, ok := h.Quantile(0.99); ok {
		t.Fatal("empty histogram reported a quantile")
	}
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zeroed: count=%d max=%v mean=%v", h.Count(), h.Max(), h.Mean())
	}
}

// TestHistQuantileAccuracy checks the log-linear layout's contract: every
// quantile is within the 1/histSub relative error of the exact value, and
// never below it (bucket upper bounds only overestimate).
func TestHistQuantileAccuracy(t *testing.T) {
	rng := NewRNG(11)
	var h Hist
	exact := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over 2 µs .. 2 s: exercises many octaves.
		v := 2e-6 * math.Pow(1e6, rng.Float64())
		h.Record(v)
		exact = append(exact, v)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("q=%v: not ok", q)
		}
		rank := int(math.Ceil(q*float64(len(exact)))) - 1
		if rank < 0 {
			rank = 0
		}
		want := exact[rank]
		if got < want*(1-1e-12) {
			t.Errorf("q=%v: got %v below exact %v", q, got, want)
		}
		if got > want*(1+2.0/histSub) {
			t.Errorf("q=%v: got %v, exact %v — beyond the %v relative bound",
				q, got, want, 2.0/histSub)
		}
	}
	if got, _ := h.Quantile(1); got != h.Max() {
		t.Errorf("q=1 returned %v, want exact max %v", got, h.Max())
	}
}

// TestHistUnderOverflow: out-of-range observations land in the underflow or
// overflow bucket, the exact maximum survives past the top octave, and the
// histogram stays finite and JSON-encodable whatever it records.
func TestHistUnderOverflow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		v       float64
		wantIdx int
		wantMax float64 // recorded next to one 1 ms observation
	}{
		{"below histMin", 1e-9, 0, 1e-3},
		{"NaN", math.NaN(), 0, 1e-3},
		{"negative", -1, 0, 1e-3},
		{"beyond the top octave", 1e9, histBuckets - 1, 1e9},
		{"+Inf", math.Inf(1), histBuckets - 1, histTop},
		{"MaxFloat64", math.MaxFloat64, histBuckets - 1, math.MaxFloat64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			h.Record(1e-3)
			h.Record(tc.v)
			h.Record(tc.v)
			if h.Count() != 3 || h.counts[tc.wantIdx] != 2 {
				t.Fatalf("count %d, bucket %d holds %d, want 3 and 2", h.Count(), tc.wantIdx, h.counts[tc.wantIdx])
			}
			if got, _ := h.Quantile(1); got != tc.wantMax {
				t.Errorf("q=1 %v, want the exact max %v", got, tc.wantMax)
			}
			if got, _ := h.Quantile(0.01); tc.wantIdx == 0 && got > histMin {
				t.Errorf("low quantile %v, want <= %v", got, histMin)
			}
			if s := h.Sum(); math.IsNaN(s) || math.IsInf(s, 0) {
				t.Errorf("sum %v, want finite", s)
			}
			if _, err := json.Marshal(&h); err != nil {
				t.Errorf("not JSON-encodable: %v", err)
			}
		})
	}
}

func TestHistMergeExact(t *testing.T) {
	rng := NewRNG(7)
	var all, a, b Hist
	for i := 0; i < 5000; i++ {
		v := math.Abs(rng.Normal(0.01, 0.005))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Min() != all.Min() {
		t.Fatalf("merge lost mass: count %d vs %d", a.count, all.count)
	}
	if math.Abs(a.Sum()-all.Sum()) > 1e-9*all.Sum() {
		t.Fatalf("merge sum %v vs %v", a.Sum(), all.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		ga, _ := a.Quantile(q)
		gb, _ := all.Quantile(q)
		if ga != gb {
			t.Errorf("q=%v: merged %v != direct %v", q, ga, gb)
		}
	}
}

func TestHistMergeIntoEmpty(t *testing.T) {
	var a, b Hist
	b.Record(0.25)
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != 1 || a.Max() != 0.25 || a.Min() != 0.25 {
		t.Fatalf("merge into empty: count=%d max=%v min=%v", a.Count(), a.Max(), a.Min())
	}
}

// TestHistJSONRejects: the decoder refuses every inconsistent wire form and
// leaves the target untouched.
func TestHistJSONRejects(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"index out of range", `{"count":1,"sum":1,"min":1,"max":1,"buckets":[[898,1]]}`},
		{"indices not ascending", `{"count":2,"sum":2,"min":1,"max":1,"buckets":[[5,1],[4,1]]}`},
		{"duplicate index", `{"count":2,"sum":2,"min":1,"max":1,"buckets":[[5,1],[5,1]]}`},
		{"zero count bucket", `{"count":0,"sum":0,"min":0,"max":0,"buckets":[[5,0]]}`},
		{"bucket sum below count", `{"count":3,"sum":2,"min":1,"max":1,"buckets":[[5,2]]}`},
		{"bucket sum overflows", `{"count":1,"sum":2,"min":1,"max":1,"buckets":[[4,18446744073709551615],[5,2]]}`},
		{"negative sum", `{"count":1,"sum":-1,"min":1,"max":1,"buckets":[[5,1]]}`},
		{"negative min", `{"count":1,"sum":1,"min":-1,"max":1,"buckets":[[5,1]]}`},
		{"non-finite max", `{"count":1,"sum":1,"min":1,"max":1e999,"buckets":[[5,1]]}`},
		{"min above max", `{"count":1,"sum":1,"min":2,"max":1,"buckets":[[5,1]]}`},
		{"empty with a max", `{"count":0,"sum":0,"min":0,"max":1,"buckets":[]}`},
		{"negative index", `{"count":1,"sum":1,"min":1,"max":1,"buckets":[[-1,1]]}`},
		{"not an object", `[1,2]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Hist
			h.Record(0.5)
			want := h
			if err := json.Unmarshal([]byte(tc.doc), &h); err == nil {
				t.Fatal("decoded")
			}
			if h != want {
				t.Error("failed decode modified the histogram")
			}
		})
	}
}

// FuzzHistJSON: decoding arbitrary bytes never panics and an accepted
// document re-encodes to itself; a Hist recording arbitrary float64 bit
// patterns survives encode→decode with count, sum, min, max and every
// quantile intact.
func FuzzHistJSON(f *testing.F) {
	f.Add([]byte(`{"count":2,"sum":0.5,"min":0.1,"max":0.4,"buckets":[[600,1],[700,1]]}`))
	f.Add([]byte(`{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}`))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.0042)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Hist
		if json.Unmarshal(data, &dec) == nil {
			roundTrip(t, &dec)
		}
		var h Hist
		for b := data; len(b) >= 8; b = b[8:] {
			h.Record(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		roundTrip(t, &h)
	})
}

func roundTrip(t *testing.T, h *Hist) {
	t.Helper()
	enc, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Hist
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("decode of %s: %v", enc, err)
	}
	if back.Count() != h.Count() || back.Sum() != h.Sum() || back.Min() != h.Min() || back.Max() != h.Max() {
		t.Fatalf("summary changed: %s", enc)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		a, okA := h.Quantile(q)
		b, okB := back.Quantile(q)
		if a != b || okA != okB {
			t.Fatalf("q=%v: %v/%v became %v/%v", q, a, okA, b, okB)
		}
	}
	if back != *h {
		t.Fatalf("buckets changed: %s", enc)
	}
}

// TestHistRecordZeroAlloc is the load-generator requirement: recording must
// not allocate, or the harness would distort the tail it measures.
func TestHistRecordZeroAlloc(t *testing.T) {
	var h Hist
	v := 0.001
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v *= 1.0001
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(float64(i%1000) * 1e-5)
	}
}
