//! A scale-free social graph grown by preferential attachment, plus
//! per-user favorite artists — the "de-identified social graph" feature
//! source of Sec. V-A.

use rand::Rng;
use richnote_core::content::SocialTie;
use richnote_core::ids::{ArtistId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Social-graph generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Number of users.
    pub n_users: usize,
    /// Follow edges created per joining user (Barabási–Albert `m`).
    pub follows_per_user: usize,
    /// Probability a follow is reciprocated (creating a mutual tie).
    pub reciprocation: f64,
    /// Favorite artists per user.
    pub favorites_per_user: usize,
    /// Number of artists available to favorite.
    pub n_artists: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            n_users: 1_000,
            follows_per_user: 5,
            reciprocation: 0.4,
            favorites_per_user: 3,
            n_artists: 200,
        }
    }
}

/// The generated social graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocialGraph {
    /// follows[u] = set of users u follows.
    follows: Vec<BTreeSet<UserId>>,
    /// favorites[u] = artists u marked favorite.
    favorites: Vec<Vec<ArtistId>>,
}

impl SocialGraph {
    /// Grows a graph by preferential attachment: each joining user follows
    /// `follows_per_user` existing users chosen with probability
    /// proportional to their follower count (+1), yielding the heavy-tailed
    /// degree distribution of real social graphs; each follow is
    /// reciprocated with probability `reciprocation`.
    ///
    /// # Panics
    ///
    /// Panics if `n_users < 2`, `follows_per_user == 0` or
    /// `n_artists == 0`.
    pub fn generate<R: Rng>(cfg: &GraphConfig, rng: &mut R) -> Self {
        assert!(cfg.n_users >= 2, "graph needs at least two users");
        assert!(cfg.follows_per_user > 0, "users must follow someone");
        assert!(cfg.n_artists > 0, "need artists to favorite");

        let mut follows: Vec<BTreeSet<UserId>> = vec![BTreeSet::new(); cfg.n_users];
        // `targets` holds one entry per (follower) edge endpoint, so drawing
        // uniformly from it implements preferential attachment.
        let mut targets: Vec<usize> = (0..cfg.n_users.min(cfg.follows_per_user + 1)).collect();

        for u in 1..cfg.n_users {
            let m = cfg.follows_per_user.min(u);
            // Insertion-ordered Vec keeps generation deterministic (HashSet
            // iteration order would not be).
            let mut chosen: Vec<usize> = Vec::with_capacity(m);
            let mut guard = 0;
            while chosen.len() < m && guard < 50 * m {
                guard += 1;
                // Mix uniform and preferential choices to guarantee
                // progress in tiny graphs.
                let v = if targets.is_empty() || rng.gen_bool(0.25) {
                    rng.gen_range(0..u)
                } else {
                    targets[rng.gen_range(0..targets.len())] % cfg.n_users
                };
                if v != u && v < u && !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            for v in chosen {
                follows[u].insert(UserId::new(v as u64));
                targets.push(v);
                if rng.gen_bool(cfg.reciprocation) {
                    follows[v].insert(UserId::new(u as u64));
                    targets.push(u);
                }
            }
        }

        let favorites = (0..cfg.n_users)
            .map(|_| {
                let mut favs: Vec<usize> = Vec::new();
                while favs.len() < cfg.favorites_per_user.min(cfg.n_artists) {
                    let a = rng.gen_range(0..cfg.n_artists);
                    if !favs.contains(&a) {
                        favs.push(a);
                    }
                }
                favs.into_iter().map(|a| ArtistId::new(a as u64)).collect()
            })
            .collect();

        Self { follows, favorites }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.follows.len()
    }

    /// Users that `user` follows.
    pub fn followees(&self, user: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.follows[user.value() as usize].iter().copied()
    }

    /// Whether `a` follows `b`.
    pub fn follows(&self, a: UserId, b: UserId) -> bool {
        self.follows[a.value() as usize].contains(&b)
    }

    /// The social tie from `recipient` towards a human `sender`.
    pub fn tie(&self, recipient: UserId, sender: UserId) -> SocialTie {
        let forward = self.follows(recipient, sender);
        let backward = self.follows(sender, recipient);
        match (forward, backward) {
            (true, true) => SocialTie::Mutual,
            (true, false) => SocialTie::Follows,
            _ => SocialTie::None,
        }
    }

    /// The tie from `recipient` towards an artist.
    pub fn artist_tie(&self, recipient: UserId, artist: ArtistId) -> SocialTie {
        if self.favorites[recipient.value() as usize].contains(&artist) {
            SocialTie::FavoriteArtist
        } else {
            SocialTie::None
        }
    }

    /// Favorite artists of `user`.
    pub fn favorites(&self, user: UserId) -> &[ArtistId] {
        &self.favorites[user.value() as usize]
    }

    /// In-degree (follower count) of every user.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.follows.len()];
        for f in &self.follows {
            for v in f {
                degrees[v.value() as usize] += 1;
            }
        }
        degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> SocialGraph {
        let mut rng = SmallRng::seed_from_u64(11);
        SocialGraph::generate(&GraphConfig::default(), &mut rng)
    }

    #[test]
    fn every_late_user_follows_someone() {
        let g = graph();
        for u in 1..g.n_users() {
            assert!(g.followees(UserId::new(u as u64)).count() > 0, "user {u} follows no one");
        }
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = graph();
        let degrees = g.in_degrees();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        // Scale-free graphs have hubs far above the mean.
        assert!(max as f64 > 5.0 * mean, "max {max}, mean {mean}");
    }

    #[test]
    fn ties_classify_correctly() {
        let g = graph();
        let mut found_follow = false;
        let mut found_mutual = false;
        for u in 0..g.n_users().min(300) {
            let uid = UserId::new(u as u64);
            for v in g.followees(uid) {
                match g.tie(uid, v) {
                    SocialTie::Mutual => found_mutual = true,
                    SocialTie::Follows => found_follow = true,
                    t => panic!("followee must be Follows or Mutual, got {t:?}"),
                }
            }
        }
        assert!(found_follow && found_mutual);
    }

    #[test]
    fn non_edge_is_none() {
        let g = graph();
        // Find a pair with no edge either way.
        'outer: for a in 0..50u64 {
            for b in 500..550u64 {
                let (ua, ub) = (UserId::new(a), UserId::new(b));
                if !g.follows(ua, ub) && !g.follows(ub, ua) {
                    assert_eq!(g.tie(ua, ub), SocialTie::None);
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn favorites_have_configured_size() {
        let g = graph();
        for u in 0..g.n_users() {
            assert_eq!(g.favorites(UserId::new(u as u64)).len(), 3);
        }
    }

    #[test]
    fn artist_tie_is_favorite_or_none() {
        let g = graph();
        let u = UserId::new(0);
        let fav = g.favorites(u)[0];
        assert_eq!(g.artist_tie(u, fav), SocialTie::FavoriteArtist);
        // An artist id beyond the configured range can't be a favorite.
        assert_eq!(g.artist_tie(u, ArtistId::new(10_000)), SocialTie::None);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let ga = SocialGraph::generate(&GraphConfig::default(), &mut a);
        let gb = SocialGraph::generate(&GraphConfig::default(), &mut b);
        assert_eq!(ga, gb);
    }

    #[test]
    fn tiny_graph_works() {
        let cfg = GraphConfig { n_users: 2, follows_per_user: 1, ..Default::default() };
        let mut rng = SmallRng::seed_from_u64(1);
        let g = SocialGraph::generate(&cfg, &mut rng);
        assert!(g.follows(UserId::new(1), UserId::new(0)));
    }
}
