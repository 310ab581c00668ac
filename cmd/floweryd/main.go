// Command floweryd is the campaign-as-a-service daemon: it serves the
// artifact pipeline over HTTP so fault-injection campaigns and studies
// can be submitted as jobs, streamed as they run, and — backed by the
// persistent artifact store — answered without re-execution when an
// identical spec has been computed before, even by an earlier process.
//
//	floweryd -addr :8080 -store /var/lib/flowery
//
// The endpoint table lives in internal/api; the client is
// `flowery remote`. Layering: internal/api (wire types) →
// internal/service (job queue + workers + HTTP handlers) →
// internal/store (persistent artifacts); this binary only assembles
// them around a listener and signal handling.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowery/internal/service"
	"flowery/internal/shard"
	"flowery/internal/store"
	"flowery/internal/telemetry"
	"flowery/internal/version"
)

func main() {
	// Sharded jobs re-execute this binary as shard workers; serve that
	// protocol before flag parsing, exactly like cmd/flowery.
	shard.MaybeServeWorker()

	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr :0)")
	shardListen := flag.String("shard-listen", "", "accept socket shard workers (flowery shard-worker -connect) on this address; enables remote_workers jobs")
	storeDir := flag.String("store", "", "persistent artifact store directory (empty = in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0, "evict least-recently-used artifacts beyond this many bytes (0 = unbounded)")
	workers := flag.Int("workers", 2, "jobs executing concurrently")
	queue := flag.Int("queue", 64, "queued-job capacity; submissions beyond it are rejected")
	showVersion := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Line("floweryd"))
		return
	}

	if err := run(*addr, *addrFile, *shardListen, *storeDir, *storeMax, *workers, *queue); err != nil {
		fmt.Fprintln(os.Stderr, "floweryd:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile, shardListen, storeDir string, storeMax int64, workers, queue int) error {
	reg := telemetry.New()

	var artifacts store.Store
	if storeDir != "" {
		disk, err := store.OpenDisk(storeDir, store.DiskOptions{MaxBytes: storeMax, Metrics: reg})
		if err != nil {
			return fmt.Errorf("opening store %s: %w", storeDir, err)
		}
		defer disk.Close()
		artifacts = disk
		fmt.Fprintf(os.Stderr, "floweryd: artifact store %s (%d artifacts, %d bytes)\n",
			storeDir, disk.Len(), disk.TotalBytes())
	} else {
		artifacts = store.NewMemory(reg)
	}

	var hub *shard.Hub
	if shardListen != "" {
		hln, err := net.Listen("tcp", shardListen)
		if err != nil {
			return fmt.Errorf("-shard-listen %s: %w", shardListen, err)
		}
		hub = shard.NewHub(hln, shard.HubOpts{Metrics: reg})
		defer hub.Close()
		fmt.Fprintf(os.Stderr, "floweryd: shard workers welcome on %s\n", hub.Addr())
	}

	mgr := service.New(service.Config{
		Artifacts:  artifacts,
		Workers:    workers,
		QueueDepth: queue,
		Telemetry:  reg,
		Hub:        hub,
	})
	defer mgr.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Written after listening succeeds: a reader holding the file's
		// content can connect immediately.
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "floweryd: %s listening on %s\n", version.String(), bound)

	srv := &http.Server{Handler: service.NewServer(mgr)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "floweryd: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
