//! Effect-propagation depth fixture: a collective reached through free-fn
//! chains one, two, and three calls deep. Each rank-branched call site must
//! produce exactly one `spmd-divergence` finding whose witness
//! chain names every hop down to the collective.

pub struct Comm;

impl Comm {
    pub fn rank(&self) -> usize {
        0
    }
    pub fn barrier(&self) {}
}

// Depth 1: the collective is directly inside the callee.
fn depth1(comm: &Comm) {
    comm.barrier();
}

// Depth 2: one relay hop.
fn depth2(comm: &Comm) {
    depth1(comm);
}

// Depth 3: two relay hops.
fn depth3(comm: &Comm) {
    depth2(comm);
}

pub fn drive(comm: &Comm) {
    let me = comm.rank();
    if me == 0 {
        depth1(comm);
    }
    if me == 1 {
        depth2(comm);
    }
    if me == 2 {
        depth3(comm);
    }
}
