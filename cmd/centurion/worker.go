package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"centurion/internal/dispatch"
	"centurion/internal/server"
)

// cmdWorker runs a sweep-execution daemon: it registers with a coordinator
// (`centurion serve`), leases jobs over long-poll, executes them through
// the same simulation path the coordinator would use locally, heartbeats to
// keep its leases alive, streams progress back, and retries with backoff
// across coordinator restarts. Every -checkpoint-every milliseconds of
// simulated time it commits the in-flight run's state back to the
// coordinator, so if this process dies the next attempt resumes mid-run
// instead of starting over; with -checkpoint-every 0 it never commits (it
// still resumes from a checkpoint another worker left on the lease).
// Horizontal scale-out is just more of these, on as many machines as you
// like.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:8080", "coordinator base URL")
	name := fs.String("name", "", "worker name in the registry (default hostname)")
	slots := fs.Int("slots", runtime.GOMAXPROCS(0), "jobs leased and executed concurrently")
	ckptEvery := fs.Int("checkpoint-every", 100, "commit a resume checkpoint every this many simulated ms (0 = never commit)")
	quiet := fs.Bool("quiet", false, "suppress per-job log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = host
	}

	// First SIGINT/SIGTERM drains: stop leasing, finish in-flight jobs.
	// A second signal aborts outright — leases lapse and the coordinator
	// requeues the abandoned work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hardStop := make(chan struct{})
	go func() {
		<-ctx.Done()
		stop() // restore default handling so a third signal kills the process
		fmt.Fprintln(os.Stderr, "centurion worker: draining (finishing in-flight jobs; signal again to abort)")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		close(hardStop)
	}()

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "centurion worker: "+format+"\n", a...)
	}
	if *quiet {
		logf = nil
	} else {
		logf("leasing from %s as %q with %d slots", *coordinator, *name, *slots)
	}
	return dispatch.RunWorker(ctx, dispatch.WorkerOptions{
		Coordinator:      *coordinator,
		Name:             *name,
		Slots:            *slots,
		ExecuteResumable: server.DispatchExecuteResumable(*ckptEvery),
		Logf:             logf,
		HardStop:         hardStop,
	})
}
