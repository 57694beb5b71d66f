package ssdsim

// PageCost exposes the per-page latency model to the external test
// package, whose oracles price outcomes independently of the Fleet.
var PageCost = pageCost
