//! Recursive-cycle fixture: `ping` and `pong` call each other, and `pong`
//! carries a collective. The summary fixpoint must terminate (no infinite
//! inlining around the cycle) and still report the rank-branched entry call
//! conservatively.

pub struct Comm;

impl Comm {
    pub fn rank(&self) -> usize {
        0
    }
    pub fn allreduce_sum(&self, x: &[f64]) {}
}

fn ping(comm: &Comm, depth: usize) {
    if depth > 0 {
        pong(comm, depth - 1);
    }
}

fn pong(comm: &Comm, depth: usize) {
    comm.allreduce_sum(&[1.0]);
    ping(comm, depth);
}

pub fn drive(comm: &Comm) {
    let me = comm.rank();
    if me == 0 {
        ping(comm, 3);
    }
}
