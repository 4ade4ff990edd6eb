package simnet

import (
	"slices"
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/geom"
)

// echoApp records every delivery it sees and can send on Start.
type echoApp struct {
	api        AppAPI
	broadcasts []int32 // receivers of our broadcast
	unicasts   []int32
	onStart    func(api AppAPI)
}

func (e *echoApp) Name() string { return "echo" }

func (e *echoApp) Start(api AppAPI) {
	e.api = api
	if e.onStart != nil {
		e.onStart(api)
	}
}

func (e *echoApp) OnBroadcast(_ float64, _, at int32, payload Payload) {
	if payload == "ping" {
		e.broadcasts = append(e.broadcasts, at)
	}
}

func (e *echoApp) OnUnicast(_ float64, _, at int32, payload Payload) {
	if payload == "pong" {
		e.unicasts = append(e.unicasts, at)
	}
}

// lineNet builds a static 3-node line: 0 -- 1 -- 2 with only adjacent pairs
// in range, plus the given app.
func lineNet(t *testing.T, app App) *Network {
	t.Helper()
	cfg := Config{
		N:         3,
		Area:      geom.NewRect(300, 10),
		Duration:  30,
		Seed:      1,
		Algorithm: cluster.LCC,
		Mobility:  &lineMobility{spacing: 100, y: 5},
		TxRange:   120,
		Apps:      []App{app},
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestAppBroadcastReachesOnlyInRange(t *testing.T) {
	app := &echoApp{}
	app.onStart = func(api AppAPI) {
		_ = api.After(5, func(float64) {
			if n := api.Broadcast(1, "ping"); n != 2 {
				t.Errorf("broadcast from middle node reached %d, want 2", n)
			}
			if n := api.Broadcast(0, "ping"); n != 1 {
				t.Errorf("broadcast from end node reached %d, want 1", n)
			}
		})
	}
	net := lineNet(t, app)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app.broadcasts) != 3 {
		t.Errorf("deliveries = %v, want 3 receptions total", app.broadcasts)
	}
}

func TestAppUnicastRangeAndSelfChecks(t *testing.T) {
	app := &echoApp{}
	app.onStart = func(api AppAPI) {
		_ = api.After(5, func(float64) {
			if !api.Unicast(0, 1, "pong") {
				t.Error("adjacent unicast should succeed")
			}
			if api.Unicast(0, 2, "pong") {
				t.Error("out-of-range unicast should fail")
			}
			if api.Unicast(0, 0, "pong") {
				t.Error("self unicast should fail")
			}
			if api.Unicast(0, -1, "pong") || api.Unicast(0, 99, "pong") {
				t.Error("out-of-bounds unicast should fail")
			}
		})
	}
	net := lineNet(t, app)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app.unicasts) != 1 || app.unicasts[0] != 1 {
		t.Errorf("unicast deliveries = %v, want [1]", app.unicasts)
	}
}

func TestAppAPIIntrospection(t *testing.T) {
	app := &echoApp{}
	checked := false
	app.onStart = func(api AppAPI) {
		if api.NodeCount() != 3 {
			t.Errorf("NodeCount = %d", api.NodeCount())
		}
		_ = api.After(20, func(now float64) {
			checked = true
			if api.Now() != now {
				t.Errorf("Now() = %v inside event at %v", api.Now(), now)
			}
			// By t=20 the line has clustered: node 0 and 2 are heads.
			if api.Role(0) != cluster.RoleHead {
				t.Errorf("role(0) = %v", api.Role(0))
			}
			if api.Head(1) != 0 {
				t.Errorf("head(1) = %d", api.Head(1))
			}
			// The middle node hears both heads, listed in ascending ID
			// order on every call.
			for i := 0; i < 20; i++ {
				if got := api.AudibleHeads(1); !slices.Equal(got, []int32{0, 2}) {
					t.Fatalf("AudibleHeads(1) call %d = %v, want [0 2]", i, got)
				}
			}
			nbs := api.Neighbors(1)
			if len(nbs) != 2 || nbs[0] != 0 || nbs[1] != 2 {
				t.Errorf("Neighbors(1) = %v, want sorted [0 2]", nbs)
			}
			if r := api.Rand(); r < 0 || r >= 1 {
				t.Errorf("Rand = %v", r)
			}
		})
	}
	net := lineNet(t, app)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("introspection event never fired")
	}
}

func TestAppUnicastToDownNodeFails(t *testing.T) {
	app := &echoApp{}
	app.onStart = func(api AppAPI) {
		_ = api.After(10, func(float64) {
			if api.Unicast(0, 1, "pong") {
				t.Error("unicast to a crashed node should fail")
			}
		})
	}
	cfg := Config{
		N:         3,
		Area:      geom.NewRect(300, 10),
		Duration:  30,
		Seed:      1,
		Algorithm: cluster.LCC,
		Mobility:  &lineMobility{spacing: 100, y: 5},
		TxRange:   120,
		Apps:      []App{app},
		Failures:  []NodeFailure{{Node: 1, At: 5}},
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app.unicasts) != 0 {
		t.Errorf("deliveries to a down node: %v", app.unicasts)
	}
}

func TestMultipleAppsAllReceive(t *testing.T) {
	a, b := &echoApp{}, &echoApp{}
	a.onStart = func(api AppAPI) {
		_ = api.After(5, func(float64) { api.Broadcast(1, "ping") })
	}
	cfg := Config{
		N:         3,
		Area:      geom.NewRect(300, 10),
		Duration:  30,
		Seed:      1,
		Algorithm: cluster.LCC,
		Mobility:  &lineMobility{spacing: 100, y: 5},
		TxRange:   120,
		Apps:      []App{a, b},
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.broadcasts) != 2 || len(b.broadcasts) != 2 {
		t.Errorf("both apps should see the delivery: %v, %v", a.broadcasts, b.broadcasts)
	}
}
