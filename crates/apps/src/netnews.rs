//! The Netnews example — §4.1.
//!
//! Readers receive inquiries and responses over an unordered flood; a
//! response can arrive before its inquiry. The paper's state-level fix is
//! the `References` field plus a local news database: the
//! [`OrderPreservingCache`] presents a response only after its inquiry,
//! notes missing articles, and lets the user display out-of-order
//! responses anyway.
//!
//! The CATOCS alternative the paper rejects — one causal group per
//! inquiry — is modeled analytically by [`catocs_group_cost`], following
//! §4.1's accounting: "The amount of state maintained by the
//! communication system is proportional to the number of causal groups as
//! well as the amount of traffic that is outstanding."

use clocks::versions::ObjectId;
use rand::Rng;
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use statelevel::cache::OrderPreservingCache;

/// A news article.
#[derive(Clone, Debug)]
pub(crate) struct Article {
    /// Globally unique id.
    pub id: u64,
    /// The inquiry this responds to (the `References` field).
    pub reference: Option<u64>,
}

/// One Usenet node: posts inquiries, responds to others, reads all.
pub(crate) struct NewsNode {
    me: usize,
    n: usize,
    inquiries_to_post: u32,
    response_probability: f64,
    next_local_id: u64,
    /// The local news database.
    pub cache: OrderPreservingCache<Article>,
    /// Responses that arrived before their inquiry.
    pub out_of_order_arrivals: u64,
    /// Articles presented, in order.
    pub presented: Vec<u64>,
}

impl NewsNode {
    /// Creates node `me` of `n`, which will post `inquiries_to_post`
    /// inquiries and respond to others' inquiries with the given
    /// probability.
    pub(crate) fn new(
        me: usize,
        n: usize,
        inquiries_to_post: u32,
        response_probability: f64,
    ) -> Self {
        NewsNode {
            me,
            n,
            inquiries_to_post,
            response_probability,
            next_local_id: 0,
            cache: OrderPreservingCache::new(),
            out_of_order_arrivals: 0,
            presented: Vec::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_local_id += 1;
        (self.me as u64) << 32 | self.next_local_id
    }

    fn flood(&self, ctx: &mut Ctx<'_, Article>, a: Article) {
        let me = self.me;
        ctx.multicast((0..self.n).filter(|&k| k != me).map(ProcessId), a);
    }

    fn ingest(&mut self, article: Article) {
        let id = article.id;
        let reference = article.reference;
        if let Some(r) = reference {
            if !self.cache.is_presented(ObjectId(r)) && self.cache.get(ObjectId(r)).is_none() {
                self.out_of_order_arrivals += 1;
            }
        }
        let newly = self
            .cache
            .insert(ObjectId(id), reference.map(ObjectId), article);
        for p in newly {
            self.presented.push(p.0);
        }
    }
}

const POST_TICK: TimerId = TimerId(0);

impl Process<Article> for NewsNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Article>) {
        ctx.set_timer(POST_TICK, SimDuration::from_millis(10 + self.me as u64));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Article>, _t: TimerId) {
        if self.inquiries_to_post > 0 {
            self.inquiries_to_post -= 1;
            let article = Article {
                id: self.fresh_id(),
                reference: None,
            };
            self.ingest(article.clone());
            self.flood(ctx, article);
            ctx.set_timer(POST_TICK, SimDuration::from_millis(15));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Article>, _from: ProcessId, msg: Article) {
        let respond = msg.reference.is_none() && ctx.rng().gen_bool(self.response_probability);
        let inquiry_id = msg.id;
        self.ingest(msg);
        if respond {
            let article = Article {
                id: self.fresh_id(),
                reference: Some(inquiry_id),
            };
            self.ingest(article.clone());
            self.flood(ctx, article);
        }
    }
}

/// Results of one Netnews run.
#[derive(Clone, Debug, Default)]
pub struct NetnewsResult {
    /// Total articles in the system.
    pub articles: usize,
    /// Responses that arrived before their inquiry, summed over readers.
    pub out_of_order_arrivals: u64,
    /// Articles still unpresentable at the end (lost dependencies).
    pub still_pending: usize,
    /// Reader-side cache state: total cached items across readers (the
    /// state-level cost — proportional to articles of interest).
    pub cache_items: usize,
    /// Every presented sequence respected inquiry-before-response.
    pub order_respected: bool,
}

/// Runs the Netnews flood.
pub fn run_netnews(
    seed: u64,
    nodes: usize,
    inquiries_per_node: u32,
    response_probability: f64,
    net: NetConfig,
) -> NetnewsResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Article>();
    for me in 0..nodes {
        sim.add_process(NewsNode::new(
            me,
            nodes,
            inquiries_per_node,
            response_probability,
        ));
    }
    sim.run_until(SimTime::from_secs(10));
    let mut r = NetnewsResult {
        order_respected: true,
        ..Default::default()
    };
    let mut all_articles = std::collections::BTreeSet::new();
    for p in sim.all_processes() {
        let node: &NewsNode = sim.process(p).expect("news node");
        r.out_of_order_arrivals += node.out_of_order_arrivals;
        r.still_pending += node.cache.pending().len();
        r.cache_items += node.cache.len();
        for id in &node.presented {
            all_articles.insert(*id);
        }
        // Check inquiry-before-response in this reader's presentation.
        let mut seen = std::collections::BTreeSet::new();
        for &id in &node.presented {
            if let Some(a) = node.cache.get(ObjectId(id)) {
                if let Some(r2) = a.reference {
                    if !seen.contains(&r2) {
                        r.order_respected = false;
                    }
                }
            }
            seen.insert(id);
        }
    }
    r.articles = all_articles.len();
    r
}

/// §4.1's analytic cost of the CATOCS alternative: one causal group per
/// inquiry. Returns `(groups, comm_state_bytes)` where the per-group
/// communication state is one vector clock (8 bytes × members) per member
/// plus buffered outstanding traffic.
pub fn catocs_group_cost(
    inquiries: usize,
    members: usize,
    outstanding_msgs_per_group: usize,
    msg_bytes: usize,
) -> (usize, usize) {
    let groups = inquiries;
    let clock_state = groups * members * (8 * members);
    let buffer_state = groups * outstanding_msgs_per_group * msg_bytes * members;
    (groups, clock_state + buffer_state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::net::LatencyModel;

    fn jittery() -> NetConfig {
        NetConfig {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(200),
                max: SimDuration::from_millis(25),
            },
            ..NetConfig::default()
        }
    }

    #[test]
    fn responses_can_arrive_before_inquiries() {
        let mut total = 0;
        for seed in 0..5 {
            let r = run_netnews(seed, 6, 3, 0.4, jittery());
            total += r.out_of_order_arrivals;
        }
        assert!(total > 0, "the Usenet misordering should occur");
    }

    #[test]
    fn cache_always_presents_in_reference_order() {
        for seed in 0..5 {
            let r = run_netnews(seed, 6, 3, 0.4, jittery());
            assert!(r.order_respected, "seed {seed}");
        }
    }

    #[test]
    fn lossless_run_presents_everything() {
        let r = run_netnews(1, 5, 2, 0.3, jittery());
        assert_eq!(r.still_pending, 0, "no lost articles → nothing pending");
        assert!(r.articles >= 10);
    }

    #[test]
    fn lossy_run_leaves_noted_gaps() {
        // With loss and no retransmission some dependencies go missing —
        // the cache notes them rather than wedging the reader.
        let net = NetConfig {
            drop_probability: 0.25,
            ..jittery()
        };
        let mut pending = 0;
        for seed in 0..5 {
            pending += run_netnews(seed, 6, 3, 0.5, net.clone()).still_pending;
        }
        assert!(pending > 0, "expected missing articles under loss");
    }

    #[test]
    fn catocs_group_cost_explodes_with_inquiries() {
        let (g1, s1) = catocs_group_cost(1_000, 50, 4, 512);
        let (g2, s2) = catocs_group_cost(100_000, 50, 4, 512);
        assert_eq!(g1, 1_000);
        assert_eq!(g2, 100_000);
        assert!(s2 / s1 == 100, "state grows linearly with group count");
        // Contrast: the reader cache is proportional to articles cached,
        // orders of magnitude smaller than per-inquiry group state.
        assert!(s1 > 1_000 * 512);
    }
}
