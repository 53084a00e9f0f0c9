package main

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// wanProfile is the simulated link of the named-rw and bulk-get workloads:
// the WAN profile scaled down 20x, a 4 ms round trip.
var wanProfile = netsim.WAN.Scaled(20)

// simCluster is a deployment of full members on one simulated network:
// each server runs the BRMI executor, a registry, a cluster node and a
// replica service; one client peer reaches them all through a directory.
type simCluster struct {
	network *netsim.Network
	servers []*rmi.Peer
	execs   []*core.Executor
	client  *rmi.Peer
	dir     *cluster.Directory
}

// startSimCluster brings up n members "server-0".."server-<n-1>" and a
// directory of replication degree r.
func startSimCluster(n, r int, regs *registries) (*simCluster, error) {
	sc := &simCluster{network: netsim.New(wanProfile)}
	eps := make([]string, n)
	for i := range eps {
		eps[i] = fmt.Sprintf("server-%d", i)
		srv := rmi.NewPeer(sc.network, peerOptions(regs.forServer())...)
		sc.servers = append(sc.servers, srv)
		if err := srv.Serve(eps[i]); err != nil {
			sc.close()
			return nil, err
		}
		exec, err := core.Install(srv)
		if err != nil {
			sc.close()
			return nil, err
		}
		sc.execs = append(sc.execs, exec)
		reg, err := registry.Start(srv)
		if err != nil {
			sc.close()
			return nil, err
		}
		node, err := cluster.StartNode(srv, reg, nil)
		if err != nil {
			sc.close()
			return nil, err
		}
		if _, err := cluster.StartReplica(srv, reg, node, exec); err != nil {
			sc.close()
			return nil, err
		}
	}
	sc.client = rmi.NewPeer(sc.network, peerOptions(regs.forClient())...)
	sc.dir = cluster.NewDirectory(sc.client, eps, cluster.WithReplication(r))
	return sc, nil
}

// bind exports obj at name's home server and binds the name there.
func (sc *simCluster) bind(ctx context.Context, name string, obj rmi.Remote, iface string) error {
	home, err := sc.dir.Home(name)
	if err != nil {
		return err
	}
	var ref wire.Ref
	for _, srv := range sc.servers {
		if srv.Endpoint() == home {
			if ref, err = srv.Export(obj, iface); err != nil {
				return err
			}
		}
	}
	if ref.Endpoint == "" {
		return fmt.Errorf("home %s of %q is not a member", home, name)
	}
	return sc.dir.Bind(ctx, name, ref)
}

// seedReplicas places every bound name's followers: the idempotent re-add
// of a member runs the placement pass that builds their shadows.
func (sc *simCluster) seedReplicas(ctx context.Context) error {
	_, err := cluster.NewRebalancer(sc.dir).AddServer(ctx, sc.servers[0].Endpoint())
	return err
}

func (sc *simCluster) peer() *rmi.Peer { return sc.client }

func (sc *simCluster) close() {
	if sc.client != nil {
		_ = sc.client.Close()
	}
	for _, e := range sc.execs {
		e.Stop()
	}
	for _, s := range sc.servers {
		_ = s.Close()
	}
	_ = sc.network.Close()
}
