package core

import (
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/rankorder"
	"adaptivefilters/internal/server"
)

// rankByTable loads every stream's table distance from q into o and
// heapifies it, so o yields the (distance, id) ranking — the "old ranking
// scores kept by the server" the protocols consult — lazily, only as far
// as the caller reads. The pass is charged to the server computation metric
// as the paper's full re-rank of n streams, however few ranks are read.
func rankByTable(o *rankorder.Order, c server.Host, q query.Center) {
	n := c.N()
	o.Reset()
	for i := 0; i < n; i++ {
		v, _ := c.Table(i)
		o.Add(i, q.Dist(v))
	}
	o.Init()
	c.AddServerOps(n)
}

// rankIDs is rankByTable restricted to ids, charging one server op per id.
func rankIDs(o *rankorder.Order, c server.Host, q query.Center, ids []int) {
	o.Reset()
	for _, id := range ids {
		o.Add(id, tableDist(c, q, id))
	}
	o.Init()
	c.AddServerOps(len(ids))
}

// tableDist returns the distance of stream id's table value from q.
func tableDist(c server.Host, q query.Center, id int) float64 {
	v, _ := c.Table(id)
	return q.Dist(v)
}

// midpoint returns the boundary radius halfway between two distances, the
// paper's placement for R ("halfway between the (k+r)th and the (k+r+1)st
// object").
func midpoint(inner, outer float64) float64 { return (inner + outer) / 2 }
