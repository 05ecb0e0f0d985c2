//! Cluster shape and rank placement.

/// Physical shape of the simulated cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
}

/// Where a rank's threads live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub node: usize,
    pub socket: usize,
    pub core: usize,
}

impl ClusterTopology {
    /// The paper's Lonestar4 nodes (Table I): dual-socket, hexa-core
    /// 3.33 GHz Westmere, 12 cores per node.
    pub fn lonestar4(nodes: usize) -> ClusterTopology {
        ClusterTopology { nodes, sockets_per_node: 2, cores_per_socket: 6 }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Block placement of `ranks` MPI ranks, each running `threads_per_rank`
    /// threads, mirroring `ibrun tacc_affinity`: ranks fill a node before
    /// spilling to the next, and a rank's threads are pinned to consecutive
    /// cores starting at its placement (one rank per socket in the paper's
    /// hybrid configuration: 2 ranks × 6 threads on a 2×6 node).
    ///
    /// Panics if the configuration does not fit the cluster.
    pub fn place(&self, ranks: usize, threads_per_rank: usize) -> Vec<Placement> {
        let cpn = self.cores_per_node();
        assert!(threads_per_rank >= 1 && threads_per_rank <= cpn, "rank does not fit a node");
        let ranks_per_node = cpn / threads_per_rank;
        assert!(ranks_per_node >= 1);
        assert!(
            ranks <= ranks_per_node * self.nodes,
            "{} ranks x {} threads exceed {} nodes x {} cores",
            ranks,
            threads_per_rank,
            self.nodes,
            cpn
        );
        (0..ranks)
            .map(|r| {
                let node = r / ranks_per_node;
                let slot = r % ranks_per_node;
                let core = slot * threads_per_rank;
                let socket = core / self.cores_per_socket;
                Placement { node, socket, core }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lonestar4_shape() {
        let t = ClusterTopology::lonestar4(12);
        assert_eq!(t.cores_per_node(), 12);
    }

    #[test]
    fn pure_mpi_placement_fills_nodes_in_blocks() {
        // OCT_MPI on one node: 12 single-thread ranks
        let t = ClusterTopology::lonestar4(2);
        let p = t.place(24, 1);
        assert_eq!(p.len(), 24);
        assert!(p[..12].iter().all(|x| x.node == 0));
        assert!(p[12..].iter().all(|x| x.node == 1));
        // consecutive cores within the node
        assert_eq!(p[0].core, 0);
        assert_eq!(p[5].core, 5);
        assert_eq!(p[5].socket, 0);
        assert_eq!(p[6].socket, 1);
    }

    #[test]
    fn hybrid_placement_one_rank_per_socket() {
        // OCT_MPI+CILK: 2 ranks x 6 threads per node (paper §V-A)
        let t = ClusterTopology::lonestar4(3);
        let p = t.place(6, 6);
        assert_eq!(p[0], Placement { node: 0, socket: 0, core: 0 });
        assert_eq!(p[1], Placement { node: 0, socket: 1, core: 6 });
        assert_eq!(p[2], Placement { node: 1, socket: 0, core: 0 });
        assert_eq!(p[5], Placement { node: 2, socket: 1, core: 6 });
    }

    #[test]
    #[should_panic]
    fn overfull_placement_panics() {
        ClusterTopology::lonestar4(1).place(13, 1);
    }

    #[test]
    #[should_panic]
    fn oversized_rank_panics() {
        ClusterTopology::lonestar4(1).place(1, 13);
    }
}
