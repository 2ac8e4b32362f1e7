package chase

import (
	"reflect"
	"testing"
	"time"

	"wqe/internal/datagen"
)

// TestMemoKeyClassifiesEveryConfigField: Config is exactly Search +
// Engine + Limits, changing any Search field changes answerKey, and
// changing any Engine or Limits field does not — so a knob added to
// Search is keyed the day it is added, and one added anywhere else is
// declared unable to change an answer.
func TestMemoKeyClassifiesEveryConfigField(t *testing.T) {
	f := datagen.NewFig1()
	job := BatchJob{Q: f.Q, E: f.E}
	keyFor := func(cfg Config) string {
		s := NewSession(f.G, DefaultConfig())
		s.Cfg = cfg
		k, ok := s.answerKey(job)
		if !ok {
			t.Fatal("answerKey refused a default job")
		}
		return k
	}
	base := DefaultConfig()
	base.Search = base.Search.withDefaults()
	baseKey := keyFor(base)

	typ := reflect.TypeOf(base)
	parts := []reflect.Type{reflect.TypeOf(Search{}), reflect.TypeOf(Engine{}), reflect.TypeOf(Limits{})}
	if typ.NumField() != len(parts) {
		t.Fatalf("Config has %d fields, want exactly the embedded Search, Engine and Limits", typ.NumField())
	}
	for i, part := range parts {
		if sf := typ.Field(i); !sf.Anonymous || sf.Type != part {
			t.Fatalf("Config field %d is %s %s, want embedded %s", i, sf.Name, sf.Type, part)
		}
		keyed := part == parts[0]
		for k := 0; k < part.NumField(); k++ {
			name := part.Name() + "." + part.Field(k).Name
			cfg := base
			change(t, name, reflect.ValueOf(&cfg).Elem().Field(i).Field(k))
			if changed := keyFor(cfg) != baseKey; changed != keyed {
				t.Errorf("changing %s changed the memo key = %v, want %v", name, changed, keyed)
			}
		}
	}
}

// change sets the addressable field v to a value different from its own.
func change(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch p := v.Addr().Interface().(type) {
	case *float64:
		*p++
	case *int:
		*p++
	case *int64:
		*p++
	case *bool:
		*p = !*p
	case *time.Duration:
		*p += time.Second
	case *time.Time:
		*p = p.Add(time.Hour)
	case *<-chan struct{}:
		*p = make(chan struct{})
	case *func(Answer):
		*p = func(Answer) {}
	default:
		t.Fatalf("%s has type %s: teach this test to change it", name, v.Type())
	}
}

// TestMemoKeyGolden pins the digests of two Fig 1 jobs, on a graph
// with uid 1: restructuring how the key is written must not move a byte
// of it.
func TestMemoKeyGolden(t *testing.T) {
	f := datagen.NewFig1()
	sr := DefaultConfig().Search.withDefaults()
	if got, want := jobDigest(1, "answ", 0, sr, BatchJob{Q: f.Q, E: f.E}),
		"436d785467a4f4e20f42468a9d8d2e3fc42893241f46b983234f7f577f61b3ac"; got != want {
		t.Errorf("default job digest %s, want %s", got, want)
	}
	sr.MaxSteps = 7
	if got, want := jobDigest(1, "heu", 2, sr, BatchJob{Q: f.Q, E: f.E}),
		"68cfcae9fa2bb3e3fc49880dd1c53d87e217ebbfaecdb5ef03541300b7b80d39"; got != want {
		t.Errorf("beam-2, 7-step job digest %s, want %s", got, want)
	}
}

// TestMemoKeyAllocs: keying a job allocates the returned digest string
// and nothing else.
func TestMemoKeyAllocs(t *testing.T) {
	f := datagen.NewFig1()
	s := NewSession(f.G, DefaultConfig())
	job := BatchJob{Q: f.Q, E: f.E}
	if n := testing.AllocsPerRun(100, func() { s.answerKey(job) }); n > 1 {
		t.Errorf("answerKey makes %v allocations, want ≤ 1", n)
	}
}
