//! Pins the RCCE discrete-event schedule on every path that moves a core's
//! clock or state from outside its own instruction stream.
//!
//! The scheduler keeps a per-core key (the clock while running) and
//! refreshes only the stepping core's key after a plain step. Lock grants,
//! flag wakes, send/recv rendezvous and barrier releases move *another*
//! core's clock or state; a key left stale by one of them reorders the
//! interleaving, and with it the memory-controller queueing, the cycle
//! totals and the event count. The paper's benchmarks synchronize only
//! through barriers, so the figure goldens would not notice — this test
//! does. The expected lines were captured from the full-scan scheduler
//! (every state and clock examined on every event).

use hsm_exec::run_rcce;
use hsm_vm::Program;
use scc_sim::SccConfig;

fn compile_src(src: &str) -> Program {
    hsm_vm::compile(&hsm_cir::parse(src).expect("parse")).expect("compile")
}

/// `RCCE_shmalloc` + one barrier, symmetric work.
const SHMALLOC_BARRIER: &str = r#"
int *sum;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    sum = (int *)RCCE_shmalloc(sizeof(int) * 8);
    int myID;
    myID = RCCE_ue();
    sum[myID] = myID * 10;
    RCCE_barrier(&RCCE_COMM_WORLD);
    int total = 0;
    int i;
    for (i = 0; i < 8; i++) total += sum[i];
    RCCE_finalize();
    return total;
}
"#;

/// A barrier that releases cores with very different clocks.
const SKEWED_BARRIER: &str = r#"
int *flag;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    flag = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int myID;
    myID = RCCE_ue();
    if (myID == 0) {
        int i;
        int acc = 0;
        for (i = 0; i < 50000; i++) acc += i;
        flag[0] = 42;
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int seen = flag[0];
    RCCE_finalize();
    return seen;
}
"#;

/// Test-and-set lock hand-off: every release with a waiter grants the
/// lock and moves the waiter's clock.
const LOCK_HANDOFF: &str = r#"
int *counter;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    counter = (int *)RCCE_shmalloc(sizeof(int) * 1);
    int myID;
    myID = RCCE_ue();
    int i;
    int j;
    int acc = 0;
    for (i = 0; i < 20; i++) {
        for (j = 0; j < myID * 40; j++) acc += j;
        RCCE_acquire_lock(0);
        counter[0] = counter[0] + 1;
        RCCE_release_lock(0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int total = counter[0];
    RCCE_finalize();
    return total;
}
"#;

/// Flag wake: core 0 raises core 1's flag copy while core 1 spins on it,
/// then every core streams shared DRAM, so a late wake shows up in the
/// memory-controller queueing.
const FLAG_WAKE: &str = r#"
int *slot;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    slot = (int *)RCCE_shmalloc(sizeof(int) * 64);
    RCCE_FLAG ready;
    RCCE_flag_alloc(&ready);
    int myID;
    myID = RCCE_ue();
    int got = 0;
    if (myID == 0) {
        int i;
        for (i = 0; i < 3000; i++) got += i & 3;
        slot[0] = 777;
        RCCE_flag_write(&ready, 1, 1);
        got = 777;
    }
    if (myID == 1) {
        RCCE_wait_until(&ready, 1);
        got = slot[0];
    }
    int k;
    for (k = 0; k < 200; k++) got += slot[k % 64] & 1;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return got;
}
"#;

/// Flag writes and reads of each core's own copy.
const FLAG_READ: &str = r#"
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    RCCE_FLAG f;
    RCCE_flag_alloc(&f);
    int myID;
    myID = RCCE_ue();
    RCCE_flag_write(&f, myID + 5, myID);
    int v[1];
    RCCE_flag_read(&f, v, myID);
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return v[0];
}
"#;

/// Send/recv around a ring: each rendezvous moves both partners' clocks;
/// shared-DRAM traffic after it exposes the order cores resume in.
const SEND_RECV_RING: &str = r#"
int *shared;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    shared = (int *)RCCE_shmalloc(sizeof(int) * 64);
    int myID;
    myID = RCCE_ue();
    int n;
    n = RCCE_num_ues();
    int out[1];
    int in[1];
    out[0] = myID * 10;
    if (myID % 2 == 0) {
        RCCE_send(out, 4, (myID + 1) % n);
        RCCE_recv(in, 4, (myID + n - 1) % n);
    } else {
        RCCE_recv(in, 4, (myID + n - 1) % n);
        RCCE_send(out, 4, (myID + 1) % n);
    }
    int k;
    for (k = 0; k < 200; k++) out[0] += shared[k % 64] & 1;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return in[0];
}
"#;

/// Ping-pong of `bytes`-sized messages between cores 0 and 1, each
/// round followed by shared-DRAM traffic on every core.
fn ping_pong(bytes: usize) -> String {
    format!(
        r#"
int *shared;
int RCCE_APP(int *argc, char **argv) {{
    RCCE_init(&argc, &argv);
    shared = (int *)RCCE_shmalloc(sizeof(int) * 64);
    int acc = 0;
    int k;
    int myID;
    myID = RCCE_ue();
    char buf[{bytes}];
    double t0 = RCCE_wtime();
    int r;
    for (r = 0; r < 8; r++) {{
        if (myID == 0) {{
            RCCE_send(buf, {bytes}, 1);
            RCCE_recv(buf, {bytes}, 1);
        }} else if (myID == 1) {{
            RCCE_recv(buf, {bytes}, 0);
            RCCE_send(buf, {bytes}, 0);
        }}
        for (k = 0; k < 40; k++) acc += shared[k % 64] & 1;
    }}
    double t1 = RCCE_wtime();
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}}
"#
    )
}

/// `RCCE_put` into the MPB, then a barrier.
const PUT_GET: &str = r#"
int *slot;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(&argc, &argv);
    slot = (int *)RCCE_malloc(sizeof(int) * 2);
    int myID;
    myID = RCCE_ue();
    int local[2];
    local[0] = myID + 100;
    if (myID == 0) {
        RCCE_put(slot, local, 4, 1);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int got = slot[0];
    RCCE_finalize();
    return got;
}
"#;

/// One line per run: the schedule-sensitive results.
fn render(name: &str, src: &str, cores: usize) -> String {
    let r = run_rcce(&compile_src(src), cores, &SccConfig::table_6_1()).expect(name);
    format!(
        "{name}@{cores} total={} timed={} per_unit={:?} events={} exit={}",
        r.total_cycles, r.timed_cycles, r.per_unit_cycles, r.events, r.exit_code
    )
}

#[test]
fn rcce_schedules_are_pinned() {
    let runs = [
        render("shmalloc_barrier", SHMALLOC_BARRIER, 8),
        render("skewed_barrier", SKEWED_BARRIER, 4),
        render("lock_handoff", LOCK_HANDOFF, 4),
        render("lock_handoff", LOCK_HANDOFF, 8),
        render("flag_wake", FLAG_WAKE, 2),
        render("flag_wake", FLAG_WAKE, 5),
        render("flag_read", FLAG_READ, 3),
        render("send_recv_ring", SEND_RECV_RING, 4),
        render("send_recv_ring", SEND_RECV_RING, 6),
        render("ping_pong_32", &ping_pong(32), 2),
        render("ping_pong_4096", &ping_pong(4096), 3),
        render("put_get", PUT_GET, 2),
    ];
    let expected = [
        "shmalloc_barrier@8 total=5046 timed=5046 per_unit=[2701, 2711, 2719, 2729, 2737, 2747, 2717, 2727] events=216 exit=280",
        "skewed_barrier@4 total=653929 timed=653929 per_unit=[652708, 2684, 2696, 2702] events=204 exit=42",
        "lock_handoff@4 total=50927 timed=50927 per_unit=[47508, 47660, 47820, 49706] events=524 exit=80",
        "lock_handoff@8 total=132983 timed=132983 per_unit=[75190, 75342, 75502, 75662, 75834, 78844, 126610, 131676] events=1088 exit=160",
        "flag_wake@2 total=80903 timed=80903 per_unit=[79744, 79866] events=836 exit=781",
        "flag_wake@5 total=80951 timed=80951 per_unit=[79744, 79866, 36174, 36184, 36332] events=2066 exit=781",
        "flag_read@3 total=3665 timed=3665 per_unit=[2587, 2593, 2601] events=33 exit=5",
        "send_recv_ring@4 total=38576 timed=38576 per_unit=[37474, 37484, 37496, 37466] events=3256 exit=30",
        "send_recv_ring@6 total=39422 timed=39422 per_unit=[38310, 38143, 38155, 38165, 38294, 38304] events=4884 exit=50",
        "ping_pong_32@2 total=54947 timed=51229 per_unit=[53910, 53900] events=1334 exit=0",
        "ping_pong_4096@3 total=91904 timed=88170 per_unit=[90851, 90841, 54740] events=1985 exit=0",
        "put_get@2 total=3768 timed=3768 per_unit=[2711, 2697] events=26 exit=100",
    ];
    assert_eq!(runs.as_slice(), expected.as_slice());
}
