package autoscale

import (
	"context"
	"time"

	"repro/internal/anomaly"
	"repro/internal/transport"
)

// Spawner provisions one more replica for a tier and hands back its
// address plus a stop function that tears the replica down after the
// routing layer has drained it. Spawn is called from the actuator with
// the control loop's context; a spawner that cannot provision (ports
// exhausted, binary missing) returns the error and the actuator reports
// the partial scale-up.
type Spawner interface {
	Spawn(ctx context.Context) (addr string, stop func() error, err error)
}

// SpawnFunc adapts a function to the Spawner interface.
type SpawnFunc func(ctx context.Context) (string, func() error, error)

// Spawn implements Spawner.
func (f SpawnFunc) Spawn(ctx context.Context) (string, func() error, error) { return f(ctx) }

// ServeSpawner spawns in-process transport.Servers sharing one detector —
// the actuator for single-binary deployments (examples, tests,
// cluster.RunFleet): a "replica" is another listener over the same model,
// which is exactly what a process replica would serve.
func ServeSpawner(det anomaly.Detector, opt transport.ServerOptions) Spawner {
	return SpawnFunc(func(ctx context.Context) (string, func() error, error) {
		srv, err := transport.ServeWith("127.0.0.1:0", det, opt)
		if err != nil {
			return "", nil, err
		}
		stop := func() error {
			// The routing layer drained us already; give stragglers a
			// short graceful window, then cut.
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				return srv.Close()
			}
			return nil
		}
		return srv.Addr(), stop, nil
	})
}
