package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// crashOp is one step of the randomized durability workload.
type crashOp struct {
	kind byte // 'p'ut, 'd'elete, 's'ync
	key  string
	val  string
}

// genCrashOps draws a random Put/Delete/Sync sequence over a small key
// space (collisions exercise overwrites and real deletions).
func genCrashOps(rng *rand.Rand, n int) []crashOp {
	ops := make([]crashOp, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%02d", rng.Intn(24))
		switch r := rng.Intn(10); {
		case r < 6:
			ops = append(ops, crashOp{kind: 'p', key: key, val: fmt.Sprintf("val-%d-%d", i, rng.Intn(1e6))})
		case r < 8:
			ops = append(ops, crashOp{kind: 'd', key: key})
		default:
			ops = append(ops, crashOp{kind: 's'})
		}
	}
	ops = append(ops, crashOp{kind: 's'}) // always end on a commit
	return ops
}

// crashRunResult captures what a (possibly crashed) run of the workload
// promised: the model at the last Sync that returned success, and the
// model the in-flight Sync was committing when the crash fired (equal to
// committed when the crash hit elsewhere).
type crashRunResult struct {
	committed map[string]string
	inFlight  map[string]string
}

func cloneModel(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// runCrashWorkload applies ops to a store on fs, stopping at the first
// error (the injected crash). Only Open (which commits a new file's
// empty tree), Sync and Close touch the files, so the crash always fires
// inside a commit; one in Open leaves both sides of it empty.
func runCrashWorkload(t *testing.T, fs *FaultFS, ops []crashOp) crashRunResult {
	t.Helper()
	model := map[string]string{}
	res := crashRunResult{committed: map[string]string{}, inFlight: map[string]string{}}
	db, err := Open("p.db", &Options{FS: fs, CachePages: 16})
	if err != nil {
		if !fs.Crashed() {
			t.Fatalf("open: %v", err)
		}
		return res
	}
	for _, op := range ops {
		var err error
		switch op.kind {
		case 'p':
			err = db.Put([]byte(op.key), []byte(op.val))
			if err == nil {
				model[op.key] = op.val
			}
		case 'd':
			err = db.Delete([]byte(op.key))
			if err == nil {
				delete(model, op.key)
			}
		case 's':
			res.inFlight = cloneModel(model)
			err = db.Sync()
			if err == nil {
				res.committed = cloneModel(model)
			}
		}
		if err != nil {
			return res
		}
	}
	res.inFlight = cloneModel(model)
	if err := db.Close(); err == nil {
		res.committed = cloneModel(model)
	}
	return res
}

func dumpAll(t *testing.T, db *DB) map[string]string {
	t.Helper()
	got := map[string]string{}
	err := db.Ascend(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
	return got
}

// TestCrashRecoveryProperty: for any random Put/Delete/Sync sequence
// with a crash injected at any write index — torn or not, with or
// without losing unsynced data — reopening yields exactly the state of
// the last successful Sync, or of the Sync that was in flight when the
// crash hit (that commit's success was never reported, so either
// outcome is correct; nothing in between, nothing mixed).
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := genCrashOps(rng, 120)

			// Fault-free rehearsal: total mutation count and final state.
			rehearsal := NewFaultFS()
			want := runCrashWorkload(t, rehearsal, ops)
			if !reflect.DeepEqual(want.committed, want.inFlight) {
				t.Fatal("fault-free run left uncommitted state")
			}
			total := rehearsal.Writes()
			if total == 0 {
				t.Fatal("workload wrote nothing")
			}

			// Sweep crash indices (all when small, sampled when large),
			// alternating torn-write sizes and unsynced-data loss.
			indices := make([]int64, 0, 64)
			if total <= 64 {
				for i := int64(0); i < total; i++ {
					indices = append(indices, i)
				}
			} else {
				indices = append(indices, 0, total-1)
				for len(indices) < 64 {
					indices = append(indices, rng.Int63n(total))
				}
			}
			for _, idx := range indices {
				tear := int(idx) % PageSize
				drop := idx%2 == 0
				fs := NewFaultFS()
				fs.CrashAfter(idx, tear, drop)
				res := runCrashWorkload(t, fs, ops)
				if !fs.Crashed() {
					t.Fatalf("idx %d: crash never fired", idx)
				}
				fs.ClearFaults()
				db, err := Open("p.db", &Options{FS: fs, CachePages: 16})
				if err != nil {
					t.Fatalf("idx %d (tear %d, drop %v): reopen: %v", idx, tear, drop, err)
				}
				got := dumpAll(t, db)
				if !reflect.DeepEqual(got, res.committed) && !reflect.DeepEqual(got, res.inFlight) {
					t.Fatalf("idx %d (tear %d, drop %v): recovered state matches neither side of the crash\n got: %v\npre: %v\npost: %v",
						idx, tear, drop, got, res.committed, res.inFlight)
				}
				db.Close()
			}
		})
	}
}
