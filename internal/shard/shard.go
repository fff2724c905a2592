// Package shard is the fleet's transport: it puts fleet.Pool nodes on the
// network. RemoteNode is a fleet.Node whose execution slots live in a
// greennode worker process reached over TCP; Worker is that process's side,
// executing shipped jobs on its own fleet.Pool. The two speak
// length-prefixed JSON frames (proto.go, wire.go): a versioned hello/welcome
// handshake, then job/result/ping/pong/cancel frames multiplexed by call id.
//
// Scheduling — partitions, work stealing, re-homing jobs off a dead node —
// is fleet.Pool's business; this package only maps transport failures onto
// fleet.ErrNodeDown so the pool knows to re-home.
package shard

import "github.com/wattwiseweb/greenweb/internal/fleet"

// Node is fleet.Node. It exists only for perfbench/.
type Node = fleet.Node

// Cluster is fleet.Pool. It exists only for perfbench/.
type Cluster = fleet.Pool

// NewLocalNode is fleet.NewLocalNode. It exists only for perfbench/.
func NewLocalNode(id int, opts fleet.Options) *fleet.LocalNode { return fleet.NewLocalNode(id, opts) }

// NewWithNodes is fleet.NewWithNodes. It exists only for perfbench/.
func NewWithNodes(nodes []Node, queueDepth int) *Cluster {
	return fleet.NewWithNodes(nodes, queueDepth)
}
