package fault

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if err := Hit("wal.fsync"); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
	}
	if Hits() != nil {
		t.Fatal("Hits() non-nil while disarmed")
	}
}

func TestFailNth(t *testing.T) {
	restore := Arm(Schedule{Rules: []Rule{{Site: "s", Nth: 3}}})
	defer restore()
	for i := 1; i <= 5; i++ {
		err := Hit("s")
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: want injected error, got %v", i, err)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != "s" || fe.Hit != 3 {
				t.Fatalf("hit %d: bad error detail %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected %v", i, err)
		}
	}
	if got := Hits()["s"]; got != 5 {
		t.Fatalf("Hits()[s] = %d, want 5", got)
	}
}

func TestUnarmedSitePasses(t *testing.T) {
	restore := Arm(Schedule{Rules: []Rule{{Site: "s", Nth: 1}}})
	defer restore()
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed site failed: %v", err)
	}
}

// TestProbDeterministic pins the determinism contract: the same seed
// yields the same fire pattern, different seeds (usually) differ, and
// hits on other sites do not perturb the draw sequence.
func TestProbDeterministic(t *testing.T) {
	pattern := func(seed int64, interleave bool) []bool {
		restore := Arm(Schedule{Seed: seed, Rules: []Rule{{Site: "p", Prob: 0.5}}})
		defer restore()
		var out []bool
		for i := 0; i < 64; i++ {
			if interleave {
				_ = Hit("unrelated")
			}
			out = append(out, Hit("p") != nil)
		}
		return out
	}
	a, b := pattern(7, false), pattern(7, false)
	c := pattern(7, true)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] != c[i] {
			t.Fatalf("unrelated-site hits perturbed the draw at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times — generator not drawing", fired, len(a))
	}
}

func TestPanicMode(t *testing.T) {
	restore := Arm(Schedule{Rules: []Rule{{Site: "b", Mode: ModePanic, Nth: 1}}})
	defer restore()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("ModePanic did not panic")
		}
		fe, ok := v.(*Error)
		if !ok || fe.Site != "b" {
			t.Fatalf("panic value = %v, want *Error for site b", v)
		}
	}()
	_ = Hit("b")
}

func TestLatencyMode(t *testing.T) {
	restore := Arm(Schedule{Rules: []Rule{{Site: "l", Mode: ModeLatency, Delay: 20 * time.Millisecond, Nth: 1}}})
	defer restore()
	start := time.Now()
	if err := Hit("l"); err != nil {
		t.Fatalf("latency mode returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency hit returned after %v, want >= 20ms", d)
	}
}

// TestRuleOrder: multiple rules on one site apply first-match per hit.
func TestRuleOrder(t *testing.T) {
	restore := Arm(Schedule{Rules: []Rule{
		{Site: "m", Nth: 2},
		{Site: "m", Nth: 4},
	}})
	defer restore()
	var fails []int
	for i := 1; i <= 5; i++ {
		if Hit("m") != nil {
			fails = append(fails, i)
		}
	}
	if len(fails) != 2 || fails[0] != 2 || fails[1] != 4 {
		t.Fatalf("fired at %v, want [2 4]", fails)
	}
}
