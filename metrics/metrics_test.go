package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndBreakdown(t *testing.T) {
	var c Counters
	c.Add(&Counters{ComputeTime: 3 * time.Second, CommunicationTime: time.Second})
	if c.Total() != 4*time.Second {
		t.Fatalf("total %v", c.Total())
	}
	if c.Duration(Compute) != 3*time.Second || c.Duration(Category(99)) != 0 {
		t.Fatalf("durations %v %v", c.Duration(Compute), c.Duration(Category(99)))
	}
	bd := c.Breakdown()
	if bd[Compute] != 0.75 || bd[Communication] != 0.25 {
		t.Fatalf("breakdown %v", bd)
	}
	if bd[Serialization] != 0 || bd[Other] != 0 {
		t.Fatalf("breakdown %v", bd)
	}
}

func TestEmptyBreakdown(t *testing.T) {
	if bd := New().Breakdown(); bd != [4]float64{} {
		t.Fatalf("breakdown of empty collector: %v", bd)
	}
}

// TestStepsAndTraffic records two supersteps and some traffic into a sink
// and checks the step count, the frontier trace and the traffic totals.
func TestStepsAndTraffic(t *testing.T) {
	c := New()
	c.Record(Counters{Supersteps: 1, Frontier: []int{10}})
	c.Record(Counters{Supersteps: 1, Frontier: []int{5}})
	c.Record(Counters{Messages: 3, Bytes: 300})
	if c.Supersteps != 2 || len(c.Frontier) != 2 || c.Frontier[1] != 5 {
		t.Fatalf("steps %d frontier %v", c.Supersteps, c.Frontier)
	}
	if c.Messages != 3 || c.Bytes != 300 {
		t.Fatalf("traffic %d/%d", c.Messages, c.Bytes)
	}
}

// TestMerge folds one record into another and checks durations and counters
// are summed per category.
func TestMerge(t *testing.T) {
	a := Counters{ComputeTime: time.Second, Supersteps: 1, Frontier: []int{1}}
	b := Counters{ComputeTime: time.Second, OtherTime: time.Second, Messages: 1, Bytes: 10}
	a.Add(&b)
	if a.Duration(Compute) != 2*time.Second || a.Duration(Other) != time.Second {
		t.Fatalf("merge durations: %v", a)
	}
	if a.Messages != 1 || a.Supersteps != 1 {
		t.Fatalf("merge counters: %v", a)
	}
}

// TestAddSumsEveryField sets every numeric field of two records to distinct
// values and checks Add sums each one, so a counter added to Counters without
// a line in Add fails here.
func TestAddSumsEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
			vb.Field(i).SetInt(int64(100 * (i + 1)))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
			vb.Field(i).SetUint(uint64(100 * (i + 1)))
		case reflect.Slice:
			if typ.Field(i).Name != "Frontier" {
				t.Fatalf("field %s: unexpected slice; extend Add and this test", typ.Field(i).Name)
			}
		default:
			t.Fatalf("field %s: unhandled kind %s; extend Add and this test", typ.Field(i).Name, f.Kind())
		}
	}
	a.Frontier, b.Frontier = []int{10}, []int{5, 3}
	a.Add(&b)
	for i := 0; i < typ.NumField(); i++ {
		f := va.Field(i)
		want := uint64(101 * (i + 1))
		var got uint64
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			got = uint64(f.Int())
		case reflect.Uint64:
			got = f.Uint()
		default:
			continue
		}
		if got != want {
			t.Errorf("Add: field %s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
	if !reflect.DeepEqual(a.Frontier, []int{10, 5, 3}) {
		t.Errorf("Add: frontier %v, want [10 5 3]", a.Frontier)
	}
}

// TestConcurrentRecord records into one shared Collector from several
// goroutines; under -race it keeps the sink's locking tested.
func TestConcurrentRecord(t *testing.T) {
	col := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				col.Record(Counters{Supersteps: 1, Frontier: []int{j}, Messages: 1, Bytes: 2, ComputeTime: time.Millisecond})
			}
		}()
	}
	wg.Wait()
	if col.Duration(Compute) != 800*time.Millisecond || col.Messages != 800 || col.Bytes != 1600 {
		t.Fatalf("concurrent records lost updates: %v", col)
	}
	if col.Supersteps != 800 || len(col.Frontier) != 800 {
		t.Fatalf("concurrent records lost steps: %d steps, %d frontier entries", col.Supersteps, len(col.Frontier))
	}
}

func TestString(t *testing.T) {
	col := New()
	col.Record(Counters{Supersteps: 1, Resizes: 1})
	s := col.String()
	for _, want := range []string{"steps=1", "computation=", "communication=", "serialization=", "other=", "resizes=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category string empty")
	}
}
