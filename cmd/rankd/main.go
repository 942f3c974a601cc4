// Command rankd is the rank worker process of the TCP backend: the
// "rank becomes a process" half of the paper's distributed design. A rankd
// dials the coordinator (steinersvc -backend tcp, or any core.Engine with
// Options.BackendTCP), receives its slice of the partition.ShardPlan in
// the session handshake, rebuilds its ranks' graph shards and Voronoi
// state slabs locally — the full CSR never materializes here — meshes with
// its peer workers for direct visitor-message traffic, and serves solver
// queries until the coordinator says goodbye.
//
// Usage:
//
//	rankd -coordinator 127.0.0.1:7600
//	rankd -coordinator coord:7600 -peer-listen 10.0.0.7:0 -retry 30s
//
// -peer-listen names the interface other workers dial for rank-to-rank
// message batches; on a multi-host deployment it must be reachable from
// the peers (the default binds localhost, matching a single-machine
// cluster). -retry keeps re-dialing a coordinator that has not started
// listening yet, so workers and coordinator can start in any order.
// -rejoin, when positive, survives session faults: instead of exiting, the
// worker re-handshakes with the coordinator's healing session (a Rejoin
// frame), waiting up to the given duration for re-admission — pair it with
// a coordinator running steinersvc -recover.
//
// The FAULTPOINTS environment variable arms deterministic crash injection
// for chaos testing (e.g. FAULTPOINTS=solve.phase3:exit kills this process
// at the start of solver phase 3); see internal/faultpoint for the point
// names and actions.
//
// The process exits 0 on a clean session end (coordinator goodbye) and
// non-zero when the session aborts unrecoverably (a rank panic anywhere in
// the fleet without -rejoin, a lost connection, a handshake mismatch), or
// 3 on an injected faultpoint exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/faultpoint"
)

func main() {
	var (
		coord      = flag.String("coordinator", "127.0.0.1:7600", "coordinator address to dial")
		peerListen = flag.String("peer-listen", "127.0.0.1:0", "address to accept peer-worker connections on")
		retry      = flag.Duration("retry", 15*time.Second, "keep re-dialing the coordinator for this long")
		rejoin     = flag.Duration("rejoin", 0, "survive session faults: re-handshake with the healing session, waiting up to this long (0 = fail-stop)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061; empty = off)")
	)
	flag.Parse()
	log.SetPrefix("rankd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	if spec := os.Getenv("FAULTPOINTS"); spec != "" {
		if err := faultpoint.ArmFromSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "rankd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("armed fault points: %s", spec)
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	cfg := core.WorkerConfig{
		PeerListen: *peerListen,
		RejoinWait: *rejoin,
		Logf:       log.Printf,
	}
	deadline := time.Now().Add(*retry)
	for {
		err := core.ServeWorker(*coord, cfg)
		if err == nil {
			return
		}
		// Only the initial dial is retried (coordinator not up yet); a
		// session that established and then failed is fatal — unless
		// -rejoin is set, in which case ServeWorker already rejoined and
		// an error here means the rejoin itself was rejected or timed out.
		if time.Now().Before(deadline) && isDialError(err) {
			time.Sleep(250 * time.Millisecond)
			continue
		}
		fmt.Fprintf(os.Stderr, "rankd: %v\n", err)
		os.Exit(1)
	}
}

// isDialError reports whether the worker never reached the coordinator
// (retryable) as opposed to failing mid-session.
func isDialError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "dial coordinator")
}
