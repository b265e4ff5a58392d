package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/policy"
	"repro/internal/prm"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Server is one federated member: a name the intent language can glob,
// the server's PRM firmware handle, and its local telemetry surfaces.
// Telemetry and Journal may be nil when the server runs with telemetry
// disabled; the controller's view then skips it.
type Server struct {
	Name      string
	Firmware  *prm.Firmware
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal
}

// Controller federates the per-server PRMs of one cluster: it owns the
// firmware handles, compiles intents against the live topology, pushes
// the resulting per-server policies and switch parameter writes, and
// renders its members' telemetry registries in place as the cluster
// view; it keeps no series of its own. Every cross-server action it
// takes is journaled — on the target server through Firmware.WithOrigin,
// and in the controller's own journal — under an origin=cluster:<intent>
// label.
type Controller struct {
	engine   *sim.Engine
	topo     Topology
	servers  []*Server
	byName   map[string]*Server
	switches map[string]*fabric.Switch

	// Journal records every ApplyIntent action.
	Journal *telemetry.Journal

	// Applied lists intent names in application order.
	Applied []string
}

// NewController builds a controller stamping its journal and its view
// with e's clock (shard 0's engine for a sharded cluster; all shards
// agree on time between Run chunks, where the view is rendered).
func NewController(e *sim.Engine, topo Topology) *Controller {
	return &Controller{
		engine:   e,
		topo:     topo,
		byName:   make(map[string]*Server),
		switches: make(map[string]*fabric.Switch),
		Journal:  telemetry.NewJournal(e, 512),
	}
}

// Topology returns the cluster shape the controller was built for.
func (c *Controller) Topology() Topology { return c.topo }

// AttachServer registers a federation member. Attachment order is the
// topology's server order and fixes the view's row order.
func (c *Controller) AttachServer(srv Server) error {
	if srv.Name == "" || srv.Firmware == nil {
		return fmt.Errorf("cluster: server needs a name and a firmware handle")
	}
	if _, dup := c.byName[srv.Name]; dup {
		return fmt.Errorf("cluster: server %q already attached", srv.Name)
	}
	s := srv
	c.servers = append(c.servers, &s)
	c.byName[srv.Name] = &s
	return nil
}

// AttachSwitch registers a fabric switch under the name intent-compiled
// parameter writes address it by.
func (c *Controller) AttachSwitch(name string, sw *fabric.Switch) error {
	if name == "" || sw == nil {
		return fmt.Errorf("cluster: switch needs a name and a handle")
	}
	if _, dup := c.switches[name]; dup {
		return fmt.Errorf("cluster: switch %q already attached", name)
	}
	c.switches[name] = sw
	return nil
}

// Server looks up a member by name.
func (c *Controller) Server(name string) (*Server, bool) {
	s, ok := c.byName[name]
	return s, ok
}

// Servers returns the members in attachment order.
func (c *Controller) Servers() []*Server { return c.servers }

// SwitchNames returns the attached switch names, sorted.
func (c *Controller) SwitchNames() []string { return core.SortedKeys(c.switches) }

// IntentTopology exposes the live federation to the intent compiler:
// each member's firmware as a policy.Registry, plus the switch names.
func (c *Controller) IntentTopology() policy.IntentTopology {
	t := policy.IntentTopology{Switches: c.SwitchNames()}
	for _, s := range c.servers {
		t.Servers = append(t.Servers, policy.IntentServer{
			Name: s.Name,
			Reg:  s.Firmware.PolicyRegistry(),
		})
	}
	return t
}

// CompileIntents compiles a parsed intent file against the live
// federation.
func (c *Controller) CompileIntents(f *policy.File, opts policy.Options) ([]*policy.CompiledIntent, error) {
	return policy.CompileIntents(f, c.IntentTopology(), opts)
}

// ApplyIntent pushes one compiled intent: each server policy loads (or
// atomically swaps) through that server's firmware under the
// cluster:<intent> origin, then each switch parameter write lands on
// the named switch's control plane. Unbound switch writes — possible
// only when the intent was compiled with AllowUnboundLDoms — are
// skipped. Fails fast on the first server that rejects its policy;
// servers already updated keep the new version, as with any partially
// rolled out fleet change, and the journal records how far it got.
func (c *Controller) ApplyIntent(ci *policy.CompiledIntent) error {
	origin := "cluster:" + ci.Intent.Name
	for _, sp := range ci.Policies {
		srv, ok := c.byName[sp.Server]
		if !ok {
			return fmt.Errorf("cluster: intent %q targets unknown server %q", ci.Intent.Name, sp.Server)
		}
		var lerr error
		srv.Firmware.WithOrigin(origin, func() {
			lerr = srv.Firmware.ReloadPolicy(sp.Name, sp.Source)
		})
		if lerr != nil {
			return fmt.Errorf("cluster: intent %q on server %s: %w", ci.Intent.Name, sp.Server, lerr)
		}
		c.Journal.Record(telemetry.Event{
			Kind:   telemetry.KindPolicyLoad,
			Origin: origin,
			Name:   sp.Name,
			Detail: "server " + sp.Server,
		})
	}
	for _, w := range ci.SwitchWrites {
		if w.Unbound {
			continue
		}
		sw, ok := c.switches[w.Switch]
		if !ok {
			return fmt.Errorf("cluster: intent %q writes to unknown switch %q", ci.Intent.Name, w.Switch)
		}
		plane := sw.Plane()
		plane.CreateRow(w.DSID)
		old := plane.Param(w.DSID, w.Param)
		plane.SetParam(w.DSID, w.Param, w.Value)
		c.Journal.Record(telemetry.Event{
			Kind:   telemetry.KindParamWrite,
			Origin: origin,
			Plane:  w.Switch,
			DS:     w.DSID,
			Name:   w.Param,
			Old:    old,
			New:    w.Value,
		})
	}
	c.Applied = append(c.Applied, ci.Intent.Name)
	return nil
}

// TopText renders the cluster view from the members' registries, read
// in place between Run chunks: each member's series as
// "<server>.<series>" with its own trend, per-name sums of the members'
// latest samples as "cluster.<series>" (sorted by name), and each
// switch's forwarding counters as "<switch>.fwd_frames" and
// "<switch>.drops". A non-empty server name narrows the view to the
// rows under "<server>." (or "cluster." — any row prefix works). The
// footer reports the members' scrape count and interval: every member
// scrapes on the same interval from time zero.
func (c *Controller) TopText(server string) string {
	t := telemetry.Top{}
	if server != "" {
		t.Prefix = server + "."
	}
	var scrapes uint64
	var interval sim.Tick
	sums := make(map[string]float64)
	for _, s := range c.servers {
		if s.Telemetry == nil {
			continue
		}
		scrapes, interval = s.Telemetry.Scrapes(), s.Telemetry.Interval()
		for _, sr := range s.Telemetry.Series() {
			last, ok := sr.Last()
			if !ok {
				continue
			}
			t.Row(s.Name+"."+sr.Name(), last.Value, sr)
			sums[sr.Name()] += last.Value
		}
	}
	for _, name := range core.SortedKeys(sums) {
		t.Row("cluster."+name, sums[name], nil)
	}
	for _, name := range c.SwitchNames() {
		sw := c.switches[name]
		t.Row(name+".fwd_frames", float64(sw.Forwarded), nil)
		t.Row(name+".drops", float64(sw.Dropped), nil)
	}
	return t.Text(scrapes, interval, c.engine.Now())
}

// JournalText renders the controller's own action journal, or — given
// a server name — that member's local journal (every cross-server
// action appears there too, labeled with its cluster:<intent> origin).
func (c *Controller) JournalText(server string, n int) (string, error) {
	if server == "" {
		return telemetry.JournalText(c.Journal, n), nil
	}
	srv, ok := c.byName[server]
	if !ok {
		return "", fmt.Errorf("cluster: no server %q (have %s)", server, c.serverNames())
	}
	if srv.Journal == nil {
		return "", fmt.Errorf("cluster: server %q runs with telemetry disabled", server)
	}
	return telemetry.JournalText(srv.Journal, n), nil
}

func (c *Controller) serverNames() string {
	out := ""
	for i, s := range c.servers {
		if i > 0 {
			out += ", "
		}
		out += s.Name
	}
	return out
}
