package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xmorph/internal/obs"
)

// Replica-lag test: a writer hammers one shard while readers run
// against its replicas. Replication is asynchronous, so replicas lag —
// the read-your-writes epoch floor must route every post-write read to
// a state that includes the write (replica caught up, or leader
// fallthrough), and the lag must converge to zero once writes stop.

func TestClusterReplicaLagAndEpochFloor(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, 1, 2) // one shard: every write lands on it
	fallthroughs := obs.Default.Counter("cluster_fallthroughs_total").Value()

	const writes = 120
	var mu sync.RWMutex
	written := map[string]string{} // name -> expected Run output

	var readerWG sync.WaitGroup
	readerErr := make(chan error, 8)
	stop := make(chan struct{})
	// Background readers rotate across the replicas (round-robin pick)
	// while the writer runs: anything they can see listed must serve.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The read lock spans the read: a name is unlisted only once
				// no read of it is in flight.
				mu.RLock()
				var name string
				for n := range written {
					name = n
					break
				}
				var err error
				if name != "" {
					_, err = runXML(c, name, diffGuard)
				}
				mu.RUnlock()
				if err != nil {
					readerErr <- fmt.Errorf("background read %s: %w", name, err)
					return
				}
			}
		}()
	}

	// The writer: shred, then immediately read back. The shred committed
	// on the leader before Shred returned, so the floor guarantees the
	// read observes it — a lagging replica must be skipped, never serve
	// a pre-commit state ("document not found" or stale bytes).
	for i := 0; i < writes; i++ {
		name := docName(i)
		if _, err := c.Shred(ctx, name, strings.NewReader(docXML(i)), nil); err != nil {
			t.Fatalf("shred %s: %v", name, err)
		}
		got, err := runXML(c, name, diffGuard)
		if err != nil {
			t.Fatalf("read-after-write %s: %v", name, err)
		}
		mu.Lock()
		written[name] = got
		mu.Unlock()
	}
	// Replace one document: a stale replica still holds the old bytes,
	// so serving it post-floor would be visible as stale content. It is
	// unlisted while it is gone.
	mu.Lock()
	delete(written, docName(0))
	mu.Unlock()
	if err := c.Drop(ctx, docName(0), nil); err != nil {
		t.Fatal(err)
	}
	v2 := `<data><book><title>V2</title><author><name>Fresh</name></author></book></data>`
	if _, err := c.Shred(ctx, docName(0), strings.NewReader(v2), nil); err != nil {
		t.Fatal(err)
	}
	got, err := runXML(c, docName(0), diffGuard)
	if err != nil {
		t.Fatalf("read-after-replace: %v", err)
	}
	if !strings.Contains(got, "V2") {
		t.Fatalf("read after replace served stale bytes: %s", got)
	}
	mu.Lock()
	written[docName(0)] = got
	mu.Unlock()

	close(stop)
	readerWG.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Writes stopped: the appliers drain and the lag converges to zero.
	deadline := time.Now().Add(10 * time.Second)
	for c.ReplicaLag(0) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica lag stuck at %d commits after writes stopped", c.ReplicaLag(0))
		}
		time.Sleep(time.Millisecond)
	}
	// Stats refreshes the gauge the /metrics scrape reads.
	c.Stats()
	if lag := obs.Default.Gauge("cluster_replica_lag").Value(); lag != 0 {
		t.Fatalf("cluster_replica_lag gauge = %v after convergence", lag)
	}

	// Caught-up replicas serve every document byte-identically. Repeated
	// reads rotate round-robin across both replicas, so each name's
	// bytes are checked on each replica.
	for name, want := range written {
		for pass := 0; pass < 2; pass++ {
			got, err := runXML(c, name, diffGuard)
			if err != nil {
				t.Fatalf("converged read %s: %v", name, err)
			}
			if got != want {
				t.Fatalf("converged read %s diverges:\n%s\nwant\n%s", name, got, want)
			}
		}
	}

	// The floor did its job silently or via fallthroughs; either way the
	// counter only moves for floor misses, never for errors. Log it for
	// the curious (the assertion above is the contract).
	t.Logf("fallthroughs during hammer: %d", obs.Default.Counter("cluster_fallthroughs_total").Value()-fallthroughs)
}
