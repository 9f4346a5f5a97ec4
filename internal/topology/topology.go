// Package topology models the wireless edge network deployment of §III-A:
// M edge servers and K users uniformly distributed in a square area, with
// coverage-based association (a user can download from every edge server
// whose coverage radius contains it) and a fully connected wired backhaul
// between servers.
package topology

import (
	"fmt"
	"sort"

	"trimcaching/internal/geom"
	"trimcaching/internal/rng"
)

// Config describes a deployment to generate.
type Config struct {
	// AreaSideM is the side of the square deployment area in metres
	// (paper: 1000 m for the main experiments, 400 m for Fig. 6).
	AreaSideM float64 `json:"areaSideM"`
	// NumServers is M.
	NumServers int `json:"numServers"`
	// NumUsers is K.
	NumUsers int `json:"numUsers"`
	// CoverageRadiusM is the server coverage radius (paper: 275 m).
	CoverageRadiusM float64 `json:"coverageRadiusM"`
	// ServerLayout selects the server placement model; the zero value is
	// the paper's uniform random placement.
	ServerLayout Layout `json:"serverLayout,omitempty"`
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	if c.AreaSideM <= 0 {
		return fmt.Errorf("topology: AreaSideM must be positive, got %v", c.AreaSideM)
	}
	if c.NumServers <= 0 {
		return fmt.Errorf("topology: NumServers must be positive, got %d", c.NumServers)
	}
	if c.NumUsers <= 0 {
		return fmt.Errorf("topology: NumUsers must be positive, got %d", c.NumUsers)
	}
	if c.CoverageRadiusM <= 0 {
		return fmt.Errorf("topology: CoverageRadiusM must be positive, got %v", c.CoverageRadiusM)
	}
	return nil
}

// Topology is a snapshot of server and user positions with derived
// association sets. It is immutable under the snapshot API (mobility
// produces new snapshots via WithUserPositions or MoveUsers); a caller that
// privately owns its topology may instead mutate it with MoveUsersInPlace,
// which reuses the association rows and allocates nothing in steady state.
type Topology struct {
	area    geom.Area
	radius  float64
	servers []geom.Point
	users   []geom.Point

	userServers [][]int // Mk: servers covering user k, ascending
	serverUsers [][]int // Km: users covered by server m, ascending
}

// Generate draws a uniform random deployment.
func Generate(cfg Config, src *rng.Source) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	area, err := geom.NewArea(cfg.AreaSideM)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	servers, err := serverPositions(cfg.ServerLayout, area, cfg.NumServers, src)
	if err != nil {
		return nil, err
	}
	return New(area, servers, area.SamplePoints(src, cfg.NumUsers), cfg.CoverageRadiusM)
}

// New builds a topology from explicit positions. Position slices are copied.
func New(area geom.Area, servers, users []geom.Point, coverageRadiusM float64) (*Topology, error) {
	if len(servers) == 0 || len(users) == 0 {
		return nil, fmt.Errorf("topology: need at least one server and one user")
	}
	if coverageRadiusM <= 0 {
		return nil, fmt.Errorf("topology: coverage radius must be positive, got %v", coverageRadiusM)
	}
	t := &Topology{
		area:    area,
		radius:  coverageRadiusM,
		servers: append([]geom.Point(nil), servers...),
		users:   append([]geom.Point(nil), users...),
	}
	t.userServers = make([][]int, len(users))
	t.serverUsers = make([][]int, len(servers))
	for k, u := range t.users {
		for m, s := range t.servers {
			if u.Dist(s) <= coverageRadiusM {
				t.userServers[k] = append(t.userServers[k], m)
				t.serverUsers[m] = append(t.serverUsers[m], k)
			}
		}
	}
	return t, nil
}

// WithUserPositions returns a new topology with the same servers and area
// but moved users (used by the mobility experiment, §VII-E).
func (t *Topology) WithUserPositions(users []geom.Point) (*Topology, error) {
	return New(t.area, t.servers, users, t.radius)
}

// MoveUsers returns a snapshot with user moved[j] relocated to newPos[j],
// recomputing associations only for the moved users — O(|moved|·M) instead
// of WithUserPositions' O(K·M) — plus the ascending list of servers whose
// coverage set (and hence load) changed. The result is identical to
// WithUserPositions on the full updated position vector: association lists
// stay ascending, and untouched rows are shared with the receiver.
func (t *Topology) MoveUsers(moved []int, newPos []geom.Point) (*Topology, []int, error) {
	if len(moved) != len(newPos) {
		return nil, nil, fmt.Errorf("topology: %d moved users with %d positions", len(moved), len(newPos))
	}
	nt := &Topology{
		area:        t.area,
		radius:      t.radius,
		servers:     t.servers, // servers never move
		users:       append([]geom.Point(nil), t.users...),
		userServers: append([][]int(nil), t.userServers...),
		serverUsers: append([][]int(nil), t.serverUsers...),
	}
	seen := make([]bool, len(t.users))
	copied := make([]bool, len(t.servers)) // serverUsers row privately owned by nt
	changed := make([]bool, len(t.servers))
	for j, k := range moved {
		if k < 0 || k >= len(t.users) {
			return nil, nil, fmt.Errorf("topology: moved user %d out of range [0,%d)", k, len(t.users))
		}
		if seen[k] {
			return nil, nil, fmt.Errorf("topology: user %d moved twice", k)
		}
		seen[k] = true
		nt.users[k] = newPos[j]
		var cov []int
		for m, s := range t.servers {
			if newPos[j].Dist(s) <= t.radius {
				cov = append(cov, m)
			}
		}
		old := t.userServers[k]
		nt.userServers[k] = cov
		// Merge-diff the ascending old and new coverage lists; splice k out
		// of (into) the users list of every server it left (entered).
		oi, ci := 0, 0
		for oi < len(old) || ci < len(cov) {
			switch {
			case ci == len(cov) || (oi < len(old) && old[oi] < cov[ci]):
				nt.spliceUser(old[oi], k, false, copied)
				changed[old[oi]] = true
				oi++
			case oi == len(old) || cov[ci] < old[oi]:
				nt.spliceUser(cov[ci], k, true, copied)
				changed[cov[ci]] = true
				ci++
			default:
				oi++
				ci++
			}
		}
	}
	var loadChanged []int
	for m, c := range changed {
		if c {
			loadChanged = append(loadChanged, m)
		}
	}
	return nt, loadChanged, nil
}

// MoveScratch owns the reusable state of in-place user moves: per-user and
// per-server epoch stamps (no O(K) clearing between calls), the reused
// load-changed list, and an arena holding the pre-move coverage rows of the
// users moved by the latest call. Allocate one per mutable topology with
// NewMoveScratch and reuse it across checkpoints; steady-state
// MoveUsersInPlace calls perform no heap allocation once the arena and the
// association rows have reached their working capacity.
type MoveScratch struct {
	epoch       uint32
	userStamp   []uint32 // userStamp[k] == epoch: user k moved this call
	movedIdx    []int32  // valid under userStamp: index into the call's moved
	serverStamp []uint32 // serverStamp[m] == epoch: server m's load changed
	loadChanged []int
	oldCovOff   []int32 // len(moved)+1 offsets into oldCovArena
	oldCovArena []int   // pre-move coverage rows, concatenated
}

// NewMoveScratch sizes a scratch for a topology with K users and M servers.
func NewMoveScratch(numUsers, numServers int) *MoveScratch {
	return &MoveScratch{
		userStamp:   make([]uint32, numUsers),
		movedIdx:    make([]int32, numUsers),
		serverStamp: make([]uint32, numServers),
	}
}

// OldCovering returns the coverage row user k had before the latest
// MoveUsersInPlace call, and whether k was moved by that call. Users not in
// the latest moved set report ok=false: their coverage is unchanged, so the
// live ServersCovering row already is the old row. The returned slice is
// valid until the next MoveUsersInPlace call on the same scratch.
func (s *MoveScratch) OldCovering(k int) ([]int, bool) {
	if k < 0 || k >= len(s.userStamp) || s.userStamp[k] != s.epoch {
		return nil, false
	}
	j := s.movedIdx[k]
	return s.oldCovArena[s.oldCovOff[j]:s.oldCovOff[j+1]], true
}

// MemoryBytes returns the heap bytes the scratch owns.
func (s *MoveScratch) MemoryBytes() int64 {
	return int64(cap(s.userStamp)+cap(s.serverStamp))*4 + int64(cap(s.movedIdx)+cap(s.oldCovOff))*4 +
		int64(cap(s.loadChanged)+cap(s.oldCovArena))*8
}

// MoveUsersInPlace relocates user moved[j] to newPos[j] by mutating the
// receiver directly — no snapshot copies — and returns the ascending list of
// servers whose coverage set (and hence load) changed, owned by scratch and
// valid until its next use. Association rows are spliced in place with
// amortized capacity, and each moved user's previous coverage row is parked
// in the scratch arena first, retrievable via scratch.OldCovering, so
// incremental revision can still diff old against new state.
//
// The receiver must be privately owned by the caller: every previously
// returned row view (ServersCovering, UsersOf) is invalidated. On error the
// topology may be partially mutated and must be discarded. Results are
// identical to MoveUsers on the same arguments (pinned by the equivalence
// tests); only the ownership discipline differs.
func (t *Topology) MoveUsersInPlace(moved []int, newPos []geom.Point, scratch *MoveScratch) ([]int, error) {
	if len(moved) != len(newPos) {
		return nil, fmt.Errorf("topology: %d moved users with %d positions", len(moved), len(newPos))
	}
	if len(scratch.userStamp) != len(t.users) || len(scratch.serverStamp) != len(t.servers) {
		return nil, fmt.Errorf("topology: move scratch sized for %dx%d, topology is %dx%d",
			len(scratch.userStamp), len(scratch.serverStamp), len(t.users), len(t.servers))
	}
	scratch.epoch++
	if scratch.epoch == 0 { // wrapped: stale stamps could collide, reset them
		for i := range scratch.userStamp {
			scratch.userStamp[i] = 0
		}
		for i := range scratch.serverStamp {
			scratch.serverStamp[i] = 0
		}
		scratch.epoch = 1
	}
	epoch := scratch.epoch
	scratch.oldCovOff = scratch.oldCovOff[:0]
	scratch.oldCovArena = scratch.oldCovArena[:0]
	scratch.oldCovOff = append(scratch.oldCovOff, 0)
	for j, k := range moved {
		if k < 0 || k >= len(t.users) {
			return nil, fmt.Errorf("topology: moved user %d out of range [0,%d)", k, len(t.users))
		}
		if scratch.userStamp[k] == epoch {
			return nil, fmt.Errorf("topology: user %d moved twice", k)
		}
		scratch.userStamp[k] = epoch
		scratch.movedIdx[k] = int32(j)
		t.users[k] = newPos[j]
		// Park the old coverage row before rebuilding it in place.
		scratch.oldCovArena = append(scratch.oldCovArena, t.userServers[k]...)
		scratch.oldCovOff = append(scratch.oldCovOff, int32(len(scratch.oldCovArena)))
		cov := t.userServers[k][:0]
		for m, s := range t.servers {
			if newPos[j].Dist(s) <= t.radius {
				cov = append(cov, m)
			}
		}
		t.userServers[k] = cov
		old := scratch.oldCovArena[scratch.oldCovOff[j]:scratch.oldCovOff[j+1]]
		// Merge-diff the ascending old and new coverage lists; splice k out
		// of (into) the users list of every server it left (entered).
		oi, ci := 0, 0
		for oi < len(old) || ci < len(cov) {
			switch {
			case ci == len(cov) || (oi < len(old) && old[oi] < cov[ci]):
				t.spliceUserInPlace(old[oi], k, false)
				scratch.serverStamp[old[oi]] = epoch
				oi++
			case oi == len(old) || cov[ci] < old[oi]:
				t.spliceUserInPlace(cov[ci], k, true)
				scratch.serverStamp[cov[ci]] = epoch
				ci++
			default:
				oi++
				ci++
			}
		}
	}
	scratch.loadChanged = scratch.loadChanged[:0]
	for m, st := range scratch.serverStamp {
		if st == epoch {
			scratch.loadChanged = append(scratch.loadChanged, m)
		}
	}
	return scratch.loadChanged, nil
}

// spliceUserInPlace inserts (add=true) or removes user k from server m's
// ascending users list, mutating the row directly with amortized capacity.
func (t *Topology) spliceUserInPlace(m, k int, add bool) {
	row := t.serverUsers[m]
	pos := sort.SearchInts(row, k)
	if add {
		row = append(row, 0)
		copy(row[pos+1:], row[pos:])
		row[pos] = k
	} else {
		row = append(row[:pos], row[pos+1:]...)
	}
	t.serverUsers[m] = row
}

// spliceUser inserts (add=true) or removes user k from server m's ascending
// users list, copying the row on first touch so the source topology stays
// intact.
func (t *Topology) spliceUser(m, k int, add bool, copied []bool) {
	row := t.serverUsers[m]
	if !copied[m] {
		row = append([]int(nil), row...)
		copied[m] = true
	}
	pos := sort.SearchInts(row, k)
	if add {
		row = append(row, 0)
		copy(row[pos+1:], row[pos:])
		row[pos] = k
	} else {
		row = append(row[:pos], row[pos+1:]...)
	}
	t.serverUsers[m] = row
}

// NumServers returns M.
func (t *Topology) NumServers() int { return len(t.servers) }

// NumUsers returns K.
func (t *Topology) NumUsers() int { return len(t.users) }

// Area returns the deployment area.
func (t *Topology) Area() geom.Area { return t.area }

// CoverageRadius returns the server coverage radius in metres.
func (t *Topology) CoverageRadius() float64 { return t.radius }

// ServerPos returns the position of server m.
func (t *Topology) ServerPos(m int) geom.Point { return t.servers[m] }

// ServersInRegion returns the ascending list of servers whose position the
// region contains — the failure domain of a correlated regional event.
func (t *Topology) ServersInRegion(r geom.Region) ([]int, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	var list []int
	for m, p := range t.servers {
		if r.Contains(p) {
			list = append(list, m)
		}
	}
	return list, nil
}

// UserPos returns the position of user k.
func (t *Topology) UserPos(k int) geom.Point { return t.users[k] }

// UserPositions returns a copy of all user positions.
func (t *Topology) UserPositions() []geom.Point {
	return append([]geom.Point(nil), t.users...)
}

// ServersCovering returns Mk, the servers covering user k, ascending. The
// returned slice must not be modified.
func (t *Topology) ServersCovering(k int) []int { return t.userServers[k] }

// UsersOf returns Km, the users covered by server m, ascending. The
// returned slice must not be modified.
func (t *Topology) UsersOf(m int) []int { return t.serverUsers[m] }

// Load returns |Km|, the association count used for bandwidth sharing.
func (t *Topology) Load(m int) int { return len(t.serverUsers[m]) }

// Distance returns the server-user distance in metres.
func (t *Topology) Distance(m, k int) float64 {
	return t.servers[m].Dist(t.users[k])
}

// Covered reports whether user k is covered by at least one server.
func (t *Topology) Covered(k int) bool { return len(t.userServers[k]) > 0 }

// MemoryBytes returns the heap bytes owned by the topology: position
// slices plus both association tables (row headers and row capacity).
func (t *Topology) MemoryBytes() int64 {
	const ptSize = 16  // geom.Point: two float64s
	const hdrSize = 24 // slice header
	n := int64(cap(t.servers)+cap(t.users)) * ptSize
	n += int64(cap(t.userServers)+cap(t.serverUsers)) * hdrSize
	for _, row := range t.userServers {
		n += int64(cap(row)) * 8
	}
	for _, row := range t.serverUsers {
		n += int64(cap(row)) * 8
	}
	return n
}

// CoveredFraction returns the fraction of users covered by ≥1 server.
func (t *Topology) CoveredFraction() float64 {
	var n int
	for k := range t.users {
		if len(t.userServers[k]) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(t.users))
}
