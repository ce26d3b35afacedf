package par

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// streamShapes lists every (workers, window) pair the stream tests run
// over n indices: workers 1, 2 and 8 at windows 1, 2 and n.
func streamShapes(n int) (out [][2]int) {
	for _, workers := range []int{1, 2, 8} {
		for _, window := range []int{1, 2, n} {
			out = append(out, [2]int{workers, window})
		}
	}
	return out
}

// jitter makes produce take a varying, index-dependent time, so
// workers finish out of index order.
func jitter(i int) {
	if i%3 != 0 {
		time.Sleep(time.Duration(i%5) * 20 * time.Microsecond)
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	const n = 60
	for _, shape := range streamShapes(n) {
		workers, window := shape[0], shape[1]
		next := 0
		err := stream(n, window, workers, func(i int) (int, error) {
			jitter(i)
			return i * i, nil
		}, func(i, v int) error {
			if i != next || v != i*i {
				return fmt.Errorf("consumed (%d, %d), want (%d, %d)", i, v, next, next*next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d window=%d: %v", workers, window, err)
		}
		if next != n {
			t.Fatalf("workers=%d window=%d: consumed %d of %d", workers, window, next, n)
		}
	}
}

// TestStreamHoldsWindow counts an index as in flight from the start of
// its produce to the end of its consume; the count must never exceed
// the window.
func TestStreamHoldsWindow(t *testing.T) {
	const n = 60
	for _, shape := range streamShapes(n) {
		workers, window := shape[0], shape[1]
		var inFlight, peak atomic.Int32
		err := stream(n, window, workers, func(i int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			jitter(i)
			return i, nil
		}, func(i, _ int) error {
			jitter(i + 1)
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int32(window) {
			t.Fatalf("workers=%d window=%d: %d indices in flight", workers, window, got)
		}
	}
}

// TestStreamFirstFailureWins fails produce at some indices and consume
// at others. The error must be the lowest failing index's, every index
// below it must be consumed, none at or above it, and no produce may
// still be running when Stream returns.
func TestStreamFirstFailureWins(t *testing.T) {
	const n = 40
	cases := []struct {
		name             string
		produceFailsAt   []int
		consumeFailsAt   []int
		wantErr, lastRun int
	}{
		{"produce before consume", []int{9, 30}, []int{17}, 9, 9},
		{"consume before produce", []int{12, 31}, []int{5}, 5, 6},
		{"consume only", nil, []int{22}, 22, 23},
		{"produce at zero", []int{0}, []int{1}, 0, 0},
	}
	for _, tc := range cases {
		for _, shape := range streamShapes(n) {
			workers, window := shape[0], shape[1]
			name := fmt.Sprintf("%s workers=%d window=%d", tc.name, workers, window)
			var running, maxStarted atomic.Int32
			maxStarted.Store(-1)
			consumed := 0
			err := stream(n, window, workers, func(i int) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				for {
					m := maxStarted.Load()
					if int32(i) <= m || maxStarted.CompareAndSwap(m, int32(i)) {
						break
					}
				}
				jitter(i)
				if slices.Contains(tc.produceFailsAt, i) {
					return 0, fmt.Errorf("produce %d", i)
				}
				return i, nil
			}, func(i, _ int) error {
				if i != consumed {
					t.Errorf("%s: consumed %d, want %d", name, i, consumed)
				}
				consumed++
				if slices.Contains(tc.consumeFailsAt, i) {
					return fmt.Errorf("consume %d", i)
				}
				return nil
			})
			if err == nil || (err.Error() != fmt.Sprintf("produce %d", tc.wantErr) &&
				err.Error() != fmt.Sprintf("consume %d", tc.wantErr)) {
				t.Fatalf("%s: error %v, want the one at index %d", name, err, tc.wantErr)
			}
			if consumed != tc.lastRun {
				t.Fatalf("%s: %d consumes ran, want %d", name, consumed, tc.lastRun)
			}
			if r := running.Load(); r != 0 {
				t.Fatalf("%s: %d produce calls still running after Stream returned", name, r)
			}
			// Only indices already in the window when the failure
			// came up can have started.
			if m := int(maxStarted.Load()); m >= tc.wantErr+window {
				t.Fatalf("%s: produce started at %d, past the window after the failure at %d", name, m, tc.wantErr)
			}
		}
	}
}

func TestStreamReraisesProducePanic(t *testing.T) {
	const n = 30
	for _, shape := range streamShapes(n) {
		workers, window := shape[0], shape[1]
		var running atomic.Int32
		consumed := 0
		r := func() (r any) {
			defer func() { r = recover() }()
			_ = stream(n, window, workers, func(i int) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				jitter(i)
				if i == 11 || i == 20 {
					panic(fmt.Sprintf("panic at %d", i))
				}
				return i, nil
			}, func(int, int) error {
				consumed++
				return nil
			})
			return nil
		}()
		if r != "panic at 11" {
			t.Fatalf("workers=%d window=%d: recovered %v, want panic at 11", workers, window, r)
		}
		if consumed != 11 {
			t.Fatalf("workers=%d window=%d: %d consumes ran before the panic, want 11", workers, window, consumed)
		}
		if got := running.Load(); got != 0 {
			t.Fatalf("workers=%d window=%d: %d produce calls still running after the panic", workers, window, got)
		}
	}
}

// TestStreamOneWorkerInterleaves pins the inline path: with one worker,
// every produce is followed by its consume, and a failure stops both.
func TestStreamOneWorkerInterleaves(t *testing.T) {
	var events []string
	sentinel := errors.New("stop")
	err := stream(5, 3, 1, func(i int) (int, error) {
		events = append(events, fmt.Sprintf("p%d", i))
		return i, nil
	}, func(i, _ int) error {
		events = append(events, fmt.Sprintf("c%d", i))
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	want := "[p0 c0 p1 c1 p2 c2 p3 c3]"
	if got := fmt.Sprint(events); got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
}

func TestStreamEmpty(t *testing.T) {
	err := Stream(0, 4, func(int) (int, error) {
		t.Fatal("produce called for n=0")
		return 0, nil
	}, func(int, int) error {
		t.Fatal("consume called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
