package chase

import (
	"reflect"
	"testing"
	"time"

	"wqe/internal/datagen"
)

// memoKeyed lists the Config fields answerKey digests: each one changes
// what a chase returns, so two jobs differing in it must not share a
// memo entry.
var memoKeyed = []string{
	"Budget", "MaxBound", "Theta", "Lambda", "Prune",
	"MaxOpsPerClass", "MaxAnalysis", "MaxSteps", "Seed",
}

// memoExcluded lists the Config fields answerKey deliberately leaves
// out, with the reason the stored answer cannot depend on them.
var memoExcluded = map[string]string{
	"TimeLimit":      "memoized flights run detached, bounded by MaxSteps only (memo.go)",
	"Deadline":       "same: stripped from the flight, so never part of the answer",
	"Cancel":         "same: one waiter's disconnect must not truncate a shared answer",
	"OnImprove":      "sessions with a streaming hook bypass the memo entirely (runMemo)",
	"Workers":        "output is byte-identical for every worker count",
	"Cache":          "star cache on/off only changes which tables get rebuilt",
	"CacheCap":       "star cache sizing never changes a table's contents",
	"CacheShards":    "output is byte-identical for every shard count",
	"AnswerCache":    "the memo's own switch",
	"AnswerCacheCap": "the memo's own sizing",
	"DistBackend":    "BFS and PLL oracles answer the same exact distances",
}

// TestMemoKeyClassifiesEveryConfigField fails the day someone adds a
// Config knob without deciding whether the answer memo must key on it:
// every field is in exactly one of the two lists above, changing a keyed
// field changes answerKey, and changing an excluded one does not.
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
	base := DefaultConfig().withDefaults()
	baseKey := keyFor(base)

	keyed := map[string]bool{}
	for _, name := range memoKeyed {
		keyed[name] = true
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, excluded := memoExcluded[name]
		if keyed[name] == excluded {
			t.Errorf("Config.%s must be in exactly one of memoKeyed / memoExcluded (keyed=%v excluded=%v): "+
				"decide whether answerKey digests it", name, keyed[name], excluded)
			continue
		}
		cfg := base
		fv := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v := fv.Addr().Interface().(type) {
		case *float64:
			*v++
		case *int:
			*v++
		case *int64:
			*v++
		case *bool:
			*v = !*v
		case *string:
			*v += "x"
		case *time.Duration:
			*v += time.Second
		case *time.Time:
			*v = v.Add(time.Hour)
		case *<-chan struct{}:
			*v = make(chan struct{})
		case *func(Answer):
			*v = func(Answer) {}
		default:
			t.Fatalf("Config.%s has type %s: teach this test to change it", name, fv.Type())
		}
		if changed := keyFor(cfg) != baseKey; changed != keyed[name] {
			t.Errorf("changing Config.%s changed the memo key = %v, want %v", name, changed, keyed[name])
		}
	}
	// Every field is in exactly one list, so a longer combined list can
	// only mean an entry naming a field that no longer exists.
	if n := typ.NumField(); n != len(memoKeyed)+len(memoExcluded) {
		t.Errorf("Config has %d fields, the lists name %d: drop the stale entry", n, len(memoKeyed)+len(memoExcluded))
	}
}
