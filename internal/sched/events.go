package sched

import (
	"fmt"
	"strings"

	"github.com/sjtucitlab/gfs/internal/cluster"
	"github.com/sjtucitlab/gfs/internal/simclock"
	"github.com/sjtucitlab/gfs/internal/task"
)

// EventKind identifies one class of simulator event.
type EventKind uint8

const (
	// TaskArrived fires when a task enters the pending queue.
	TaskArrived EventKind = iota
	// TaskStarted fires when a task's run begins (Event.Task holds
	// the task; a preceding grace period is already folded into the
	// start time recorded on the task).
	TaskStarted
	// TaskEvicted fires when a running task is preempted, killed by
	// a node failure, or reclaimed; Event.Cause distinguishes them.
	TaskEvicted
	// TaskFinished fires when a task completes all its work.
	TaskFinished
	// QuotaUpdated fires at each quota tick with the new spot quota
	// in Event.Quota.
	QuotaUpdated
	// NodeDown fires when a failure-domain outage takes a node down;
	// Event.Node holds the node. A retirement drain announces
	// NodeRetired instead.
	NodeDown
	// NodeUp fires when a domain restore returns a failed node to the
	// schedulable pool; every NodeUp follows that node's NodeDown on
	// the same stream. New capacity announces NodeProvisioned instead.
	NodeUp
	// TaskMigrated fires on the federation event stream when a task
	// evicted by capacity loss is delivered to a sibling cluster
	// after the migration delay; Event.Member names the source and
	// Event.Target the destination member.
	TaskMigrated
	// ClusterSaturated fires on the federation event stream when a
	// member can no longer hold its workload: a routed task exceeds
	// its free capacity, or capacity loss forces a spillover. At most
	// one fires per member per timestamp.
	ClusterSaturated
	// AllocSampled mirrors every allocation observation of the
	// simulator's internal tracker onto the event spine: Event.Used
	// holds the GPUs in use and Event.Capacity the schedulable
	// capacity at that instant. Collectors rebuild the allocation
	// trajectory (and its time-averaged rate) from these ticks alone,
	// without touching the cluster.
	AllocSampled
	// NodeProvisioned fires when an autoscaler delivers a new node
	// after its pre-warm lead time; Event.Node holds the node and
	// Event.Tier its capacity tier. Unlike NodeUp it marks capacity
	// that did not exist at run start, so cost collectors price it
	// from delivery rather than treating it as a recovery.
	NodeProvisioned
	// NodeRetired fires when an autoscaler begins retiring a node:
	// the node is cordoned, its spot tasks are drained, and it
	// leaves capacity once its last HP pod completes. Event.Node
	// holds the node and Event.Tier its capacity tier.
	NodeRetired
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case TaskArrived:
		return "TaskArrived"
	case TaskStarted:
		return "TaskStarted"
	case TaskEvicted:
		return "TaskEvicted"
	case TaskFinished:
		return "TaskFinished"
	case QuotaUpdated:
		return "QuotaUpdated"
	case NodeDown:
		return "NodeDown"
	case NodeUp:
		return "NodeUp"
	case TaskMigrated:
		return "TaskMigrated"
	case ClusterSaturated:
		return "ClusterSaturated"
	case AllocSampled:
		return "AllocSampled"
	case NodeProvisioned:
		return "NodeProvisioned"
	case NodeRetired:
		return "NodeRetired"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// EvictCause explains why a TaskEvicted event happened.
type EvictCause uint8

const (
	// CauseNone marks events that are not evictions.
	CauseNone EvictCause = iota
	// CausePreempted: a higher-priority placement took the GPUs.
	CausePreempted
	// CauseNodeFailure: the hosting node went down.
	CauseNodeFailure
	// CauseReclaimed: a spot reclamation burst took the capacity.
	CauseReclaimed
	// CauseDrained: the hosting node was drained for retirement.
	CauseDrained
)

// String implements fmt.Stringer.
func (c EvictCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CausePreempted:
		return "preempted"
	case CauseNodeFailure:
		return "node-failure"
	case CauseReclaimed:
		return "reclaimed"
	case CauseDrained:
		return "drained"
	default:
		return fmt.Sprintf("EvictCause(%d)", uint8(c))
	}
}

// Event is one observation from the simulator core. Only the fields
// relevant to Kind are set: Task for task lifecycle events, Node for
// node membership events, Quota for quota updates, Cause for
// evictions.
type Event struct {
	Kind EventKind
	// At is the simulated time of the event.
	At simclock.Time
	// Seq orders events totally within one run: events sharing a
	// timestamp keep their emission order.
	Seq   uint64
	Task  *task.Task
	Node  *cluster.Node
	Quota float64
	Cause EvictCause
	// Used is the GPUs in use: cluster-wide on AllocSampled, spot
	// only on QuotaUpdated (the usage the quota constrains).
	Used float64
	// Capacity is the schedulable cluster capacity on AllocSampled.
	Capacity float64
	// Eta is the quota policy's safety coefficient on QuotaUpdated,
	// when the policy reports one (see EtaReporter); 0 otherwise.
	Eta float64
	// Waste is the wasted GPU-seconds of a TaskEvicted event
	// (Eq. 17: work lost since the last checkpoint).
	Waste float64
	// Tier is the capacity tier of the node on NodeProvisioned and
	// NodeRetired events ("spot", "on-demand", "reserved").
	Tier string
	// Member names the federation member the event concerns. The
	// federation stream sets it on every event (member streams leave
	// it empty); for TaskMigrated it is the source member.
	Member string
	// Target names the destination member of a TaskMigrated event.
	Target string
}

// String renders the event as one deterministic log line, so that an
// event log can be compared byte-for-byte across runs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d seq=%d %s", int64(e.At), e.Seq, e.Kind)
	if e.Member != "" {
		fmt.Fprintf(&b, " member=%s", e.Member)
	}
	switch e.Kind {
	case TaskArrived, TaskStarted, TaskFinished:
		fmt.Fprintf(&b, " task=%d type=%s gpus=%g", e.Task.ID, e.Task.Type, e.Task.TotalGPUs())
	case TaskEvicted:
		fmt.Fprintf(&b, " task=%d type=%s gpus=%g cause=%s waste=%g", e.Task.ID, e.Task.Type, e.Task.TotalGPUs(), e.Cause, e.Waste)
	case TaskMigrated:
		fmt.Fprintf(&b, " task=%d type=%s gpus=%g target=%s", e.Task.ID, e.Task.Type, e.Task.TotalGPUs(), e.Target)
	case QuotaUpdated:
		fmt.Fprintf(&b, " quota=%g used=%g eta=%g", e.Quota, e.Used, e.Eta)
	case NodeDown, NodeUp:
		fmt.Fprintf(&b, " node=%d", e.Node.ID)
	case NodeProvisioned, NodeRetired:
		fmt.Fprintf(&b, " node=%d tier=%s", e.Node.ID, e.Tier)
	case AllocSampled:
		fmt.Fprintf(&b, " used=%g cap=%g", e.Used, e.Capacity)
	}
	return b.String()
}

// Observer receives simulator events as they happen. Implementations
// must not mutate the cluster or tasks; they are called synchronously
// from the simulation hot loop, so heavy work should be deferred.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// EventLog is an Observer that records every event in order. Its
// String output is deterministic for a fixed seed and configuration.
type EventLog struct {
	Events []Event
}

// OnEvent implements Observer.
func (l *EventLog) OnEvent(e Event) { l.Events = append(l.Events, e) }

// Filter returns the recorded events of the given kind, in order.
func (l *EventLog) Filter(kind EventKind) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// String renders the log with one line per event.
func (l *EventLog) String() string {
	var b strings.Builder
	for _, e := range l.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
