// Command xmorphd serves the XMorph pipeline over HTTP — the query
// service form of the paper's architecture #1: documents are shredded
// into a store once, then query guards run against them over the wire.
//
//	xmorphd -store data.db -addr :8080
//
//	POST   /v1/docs/{name}        shred the request body (XML) as name
//	PATCH  /v1/docs/{name}        apply an edit script in place (text body,
//	                              or JSON {"update":"..."}): insert <xml>
//	                              into|before|after <path> ; delete <path> ;
//	                              replace <path> with <xml>
//	GET    /v1/docs               list shredded documents
//	GET    /v1/docs/{name}/shape  print a document's adorned shape
//	DELETE /v1/docs/{name}        drop a document
//	POST   /v1/query              {"doc","guard"[,"query","format","indent"]}
//	                              (?explain=1 embeds the span tree)
//	GET    /metrics               obs registry snapshot (?format=json)
//	GET    /debug/traces          retained request traces (/{id} for one tree)
//	GET    /debug/pprof/          runtime profiles
//
// Every request runs under a deadline; load beyond -max-inflight is
// refused with 429 + Retry-After. Requests are traced 1-in--trace-sample
// (ID from X-Request-Id or generated) and logged as one JSON line each;
// traces slower than -slow-query-ms are always retained for /debug/traces.
// SIGINT/SIGTERM drain gracefully: in-flight requests finish (up to
// -drain), then the store syncs and closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmorph/internal/cluster"
	"xmorph/internal/engine"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "xmorph.db", "store file for shredded documents (a directory of per-shard files when -shards selects cluster mode)")
	cache := flag.Int("cache", 256, "buffer pool size in pages (per shard in cluster mode)")
	shards := flag.Int("shards", 1, "shard the store across N engines on a consistent-hash ring (>1 selects cluster mode)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxInflight := flag.Int("max-inflight", 0, "admitted concurrent requests (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 64<<20, "request body cap in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
	traceSample := flag.Int("trace-sample", 1, "trace 1 in N requests (negative disables tracing)")
	slowMS := flag.Int("slow-query-ms", 250, "retain traces of requests at least this slow (negative disables)")
	traceRing := flag.Int("trace-ring", 128, "recent traces retained for /debug/traces")
	slowRing := flag.Int("slow-ring", 32, "slow traces retained for /debug/traces")
	accessLog := flag.String("access-log", "stderr", `access-log destination: "stderr", "off", or a file path`)
	flag.Parse()

	logger, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmorphd:", err)
		os.Exit(1)
	}
	if logClose != nil {
		defer logClose()
	}

	cfg := engine.ServerConfig{
		RequestTimeout:     *timeout,
		MaxInFlight:        *maxInflight,
		MaxBodyBytes:       *maxBody,
		TraceSample:        *traceSample,
		SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
		TraceRingSize:      *traceRing,
		SlowRingSize:       *slowRing,
		AccessLog:          logger,
	}
	if err := run(*addr, *storePath, *cache, *shards, *drain, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xmorphd:", err)
		os.Exit(1)
	}
}

// openAccessLog resolves the -access-log flag into a JSON slog logger
// (nil when logging is off) plus a closer for the file form.
func openAccessLog(dest string) (*slog.Logger, func() error, error) {
	var w io.Writer
	var closer func() error
	switch dest {
	case "off", "":
		return nil, nil, nil
	case "stderr":
		w = os.Stderr
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("open access log: %w", err)
		}
		w = f
		closer = f.Close
	}
	return slog.New(slog.NewJSONHandler(w, nil)), closer, nil
}

// openBackend builds the verb surface the server fronts: a single
// engine by default, a sharded cluster when -shards asks for one. The
// HTTP surface is identical either way — the handlers only see
// engine.Backend.
func openBackend(storePath string, cache, shards int) (engine.Backend, string, error) {
	if shards <= 1 {
		eng, err := engine.Open(storePath, engine.WithCachePages(cache))
		if err != nil {
			return nil, "", err
		}
		return eng, storePath, nil
	}
	// Cluster mode: -store names a directory holding one file per shard
	// leader.
	if err := os.MkdirAll(storePath, 0o755); err != nil {
		return nil, "", err
	}
	cl, err := cluster.New(cluster.Config{
		Shards:     shards,
		Dir:        storePath,
		CachePages: cache,
	})
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%s (%d shards)", storePath, shards)
	return cl, desc, nil
}

func run(addr, storePath string, cache, shards int,
	drain time.Duration, cfg engine.ServerConfig) error {
	eng, desc, err := openBackend(storePath, cache, shards)
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           engine.NewServer(eng, cfg).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "xmorphd: serving %s on %s\n", desc, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		eng.Close()
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "xmorphd: %v, draining\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// The grace period expired with requests still running; close
			// hard so the store shutdown below is not indefinitely blocked.
			srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			eng.Close()
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "xmorphd: store closed, bye")
		return nil
	}
}
