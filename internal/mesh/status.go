package mesh

import (
	"fmt"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/obs/health"
)

// PeerInfos snapshots every peer's replication state for
// GET /cluster/status. Safe to call concurrently with the sync workers.
func (e *Engine) PeerInfos() []health.PeerInfo {
	out := make([]health.PeerInfo, 0, len(e.peers))
	for _, ps := range e.peers {
		pi := ps.info()
		pi.Cursor = e.Cursor(ps.name).Seq
		out = append(out, pi)
	}
	return out
}

// info snapshots the peer's replication state, all but its cursor.
func (ps *peerState) info() health.PeerInfo {
	ps.statMu.Lock()
	defer ps.statMu.Unlock()
	pi := health.PeerInfo{
		Name:           ps.name,
		LagSeconds:     ps.lagSeconds,
		BackoffSeconds: ps.backoff.Seconds(),
		Failures:       ps.failures,
		LastError:      ps.lastErr,
	}
	if !ps.lastSuccess.IsZero() {
		pi.LastSuccessUnix = ps.lastSuccess.Unix()
	}
	return pi
}

// PeersCheck is the mesh-staleness health check: a peer is stale when
// it has failing syncs and no drained round within staleAfter (or none
// ever). One stale peer degrades the node — it still serves reads and
// accepts ingest, but its view of that peer is aging, which /readyz
// surfaces with the peer named in the reason. Peers failing their very
// first rounds after boot are reported once failures accumulate rather
// than immediately, so a slow-starting neighbor does not flap readiness.
func PeersCheck(e *Engine, staleAfter time.Duration) health.Check {
	if staleAfter <= 0 {
		staleAfter = 2 * DefaultInterval
	}
	return func() health.Result {
		var stale []string
		for _, ps := range e.peers {
			ps.statMu.Lock()
			failures, last, lastErr := ps.failures, ps.lastSuccess, ps.lastErr
			ps.statMu.Unlock()
			switch {
			case failures == 0:
				continue
			case last.IsZero():
				if failures >= 3 {
					stale = append(stale, fmt.Sprintf("%s never synced (%d failures: %s)",
						ps.name, failures, lastErr))
				}
			case time.Since(last) > staleAfter:
				stale = append(stale, fmt.Sprintf("%s stale for %s (%d failures: %s)",
					ps.name, time.Since(last).Round(time.Second), failures, lastErr))
			}
		}
		if len(stale) > 0 {
			return health.Degradedf("replication stale: " + strings.Join(stale, "; "))
		}
		return health.Pass()
	}
}
