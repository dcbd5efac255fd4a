//! The deployment the install-path gates share: Mapping 1 (Attribute-Split)
//! over m-cast, where every subscription is stored at dozens of rendezvous
//! nodes, fed the paper's workload one subscription at a time.

use cbps::{MappingKind, PubSubNetwork, SubId, Subscription};
use cbps_bench::runner::{self, paper_workload, workload_gen, Deployment};
use cbps_sim::{PoolMode, SimDuration};

pub struct Mapping1Install {
    pub nodes: usize,
    pub net: PubSubNetwork,
    /// The subscriptions to install, in order.
    pub subs: Vec<Subscription>,
    /// `ids[i]` is what installing `subs[i]` returned.
    pub ids: Vec<SubId>,
}

impl Mapping1Install {
    pub fn new(nodes: usize, seed: u64, subs: usize) -> Self {
        runner::set_pool(PoolMode::Reuse);
        let mut deployment = Deployment::new(nodes, seed);
        deployment.mapping = MappingKind::AttributeSplit;
        let mut net = deployment.build_on::<cbps::ChordBackend>();
        let mut gen = workload_gen(paper_workload(nodes, 0), seed);
        let subs: Vec<Subscription> = (0..subs).map(|_| gen.gen_subscription()).collect();
        net.reserve_workload(subs.len());
        Mapping1Install {
            nodes,
            net,
            ids: Vec::with_capacity(subs.len()),
            subs,
        }
    }

    /// Installs the next `count` subscriptions, each from its own node and
    /// run to quiescence before the next.
    pub fn install(&mut self, count: usize) {
        for i in self.ids.len()..self.ids.len() + count {
            let id = self
                .net
                .subscribe(i % self.nodes, self.subs[i].clone(), None)
                .expect("valid subscription");
            self.ids.push(id);
            let until = self.net.now() + SimDuration::from_secs(2);
            self.net.run_until(until);
        }
    }
}
