// Command gwcached serves a shared, content-addressed result cache plus a
// lease-based work dispatcher over HTTP, so a fleet of gwsweep hosts
// shares one key→result store and partitions one evaluation grid between
// them. Entries are location-independent (the key hashes the code version,
// the workload spec, and the full machine configuration — see
// internal/harness), so the server needs no invalidation logic and its
// data directory is an ordinary on-disk cache: the server appends every
// result to one pack file of its own (<dir>/<unique>.pack), and copying a
// laptop's .gwcache packs into it or deleting it are both always safe.
//
//	gwcached -addr :8344 -dir /srv/gwcache        # on the cache host
//	gwsweep -remote http://cachehost:8344 -submit # once, to post the grid
//	gwsweep -remote http://cachehost:8344 -worker # on every sweep host
//
// Workers lease batches of cells (POST /v1/claim), renew mid-simulation
// (POST /v1/heartbeat), and complete by the idempotent PUT /v1/cell/<key>.
// An expired lease returns to the queue the next time the table is read —
// by any submission, claim, heartbeat or status request — so cells held by
// a crashed or partitioned worker are re-dispatched automatically.
//
// The dispatcher's lease table is always journaled to a write-ahead log in
// the -wal directory (default <dir>/wal) and fsynced on every acknowledged
// submission, claim, and completion, so a killed server recovers its
// mid-sweep state on the next boot — no manifest resubmission, no lost
// completions, no cell double-dispatched inside its lease. A WAL written by
// an older build is refused at boot; point -wal at a fresh directory.
//
// Endpoints: GET/PUT /v1/cell/<key>, POST /v1/sweep, POST /v1/claim,
// POST /v1/heartbeat, GET /v1/sweep, GET /v1/stats, GET /healthz.
//
// SIGINT/SIGTERM flip the drain gate — new submissions and claims get 503
// + Retry-After, /healthz turns unhealthy so failover clients elect a
// standby — then in-flight requests finish (bounded by -drain) and the WAL
// is flushed and fsynced before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ghostwriter/internal/harness"
)

// main delegates to realMain so the deferred WAL flush-and-close runs on
// every exit path before the process status is decided.
func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("gwcached", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8344", "listen address")
		dir      = fs.String("dir", harness.DefaultCacheDir, "cache data directory")
		walDir   = fs.String("wal", "", `write-ahead-log directory for the dispatch lease table (default "<dir>/wal")`)
		leaseTTL = fs.Duration("lease-ttl", harness.DefaultLeaseTTL, "work-dispatch lease duration, positive (heartbeats renew it)")
		drain    = fs.Duration("drain", 10*time.Second, "shutdown drain timeout for in-flight requests")
		quiet    = fs.Bool("q", false, "suppress the per-request log")
	)
	fs.Parse(args)
	if *walDir == "off" {
		fmt.Fprintln(os.Stderr, `gwcached: -wal names the write-ahead-log directory; dispatch is always journaled, so "off" is not a mode`)
		return 2
	}
	if *leaseTTL <= 0 {
		fmt.Fprintf(os.Stderr, "gwcached: -lease-ttl %v: a lease must last a positive time\n", *leaseTTL)
		return 2
	}
	cache, err := harness.OpenCache(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwcached:", err)
		return 1
	}
	wd := *walDir
	if wd == "" {
		wd = filepath.Join(cache.Dir(), "wal")
	}
	cached := func(key string) bool {
		_, ok := cache.Get(key)
		return ok
	}
	disp, stats, err := harness.OpenDurableDispatcher(wd, *leaseTTL, nil, cached)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwcached: WAL recovery:", err)
		return 1
	}
	if stats.Cells > 0 || stats.TornBytes > 0 {
		log.Printf("gwcached: recovered %d cell(s) from WAL (%d pending, %d leased, %d done; %d record(s), %d backfilled, %d torn byte(s) discarded)",
			stats.Cells, stats.Pending, stats.Leased, stats.Done,
			stats.Records, stats.Backfilled, stats.TornBytes)
	}
	// Flush and close the journal after the drain, so the last in-flight
	// completions are durable before the process exits.
	defer func() {
		if err := disp.Close(); err != nil {
			log.Printf("gwcached: WAL close: %v", err)
		}
	}()
	gate := &harness.DrainGate{}
	h := harness.NewServer(harness.ServerConfig{Backend: cache, Durable: disp, Gate: gate})
	if !*quiet {
		h = logRequests(h)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("gwcached: serving %s on %s (lease ttl %s)", cache.Dir(), *addr, disp.TTL())

	select {
	case err := <-errc:
		// The listener failed outright (port in use, permission); Shutdown
		// never ran, so ErrServerClosed cannot arrive on this path.
		log.Printf("gwcached: %v", err)
		return 1
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		// Refuse new submissions and claims (503 + Retry-After) while the
		// in-flight requests — completions above all — land and are
		// journaled; the deferred WAL close then fsyncs the tail.
		gate.Drain()
		log.Printf("gwcached: signal received; draining for up to %s", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("gwcached: drain incomplete (%v); closing", err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("gwcached: %v", err)
			return 1
		}
		log.Printf("gwcached: stopped")
	}
	return 0
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// logRequests wraps h with a one-line-per-request log: method, path,
// status, and service time.
func logRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, req)
		log.Printf("%s %s %d %s", req.Method, req.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}
