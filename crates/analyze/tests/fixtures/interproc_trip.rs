//! Trip fixture for `spmd-divergence` through calls: the collective is
//! hidden behind a helper, so no collective is spelled in the branch — only
//! the call-graph pass connects the rank branch to the `bcast` inside
//! `sync_halo`.

pub struct Comm;

impl Comm {
    pub fn rank(&self) -> usize {
        0
    }
    pub fn bcast(&self, root: usize, buf: Vec<u8>) -> Vec<u8> {
        let _ = root;
        buf
    }
}

fn sync_halo(comm: &Comm, buf: Vec<u8>) -> Vec<u8> {
    comm.bcast(0, buf)
}

pub fn step(comm: &Comm) {
    let me = comm.rank();
    if me == 0 {
        // No literal collective name on any line inside this branch: the
        // call into the helper is the finding.
        let _ = sync_halo(comm, Vec::new());
    }
}
