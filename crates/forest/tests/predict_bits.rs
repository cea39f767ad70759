//! Pins the exact bits of `RandomForest::predict_proba` for a fixed-seed
//! forest, so any change to how trees are stored or walked must keep every
//! prediction bit-identical — including on query values equal to split
//! thresholds, on ±∞ and on NaN.

use richnote_forest::{Dataset, RandomForest, RandomForestConfig};

/// 240 training rows on the grid `k / 8`, so every split threshold (the
/// midpoint of two grid values) lies on the grid `j / 16`.
fn training_set() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..240usize)
        .map(|i| (0..4usize).map(|f| ((i * (3 + 2 * f) + f * 7) % 9) as f64 / 8.0).collect())
        .collect();
    let labels = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (r[0] + r[1] > 1.0) ^ ((i * 2_654_435_761) % 100 < 12))
        .collect();
    Dataset::new(rows, labels).unwrap()
}

/// 200 query rows on the grid `j / 16` for `j` in `-1..=17` (which holds
/// every threshold), with ±∞ and NaN mixed in.
fn queries() -> Vec<[f64; 4]> {
    (0..200usize)
        .map(|i| {
            let mut q = [0.0; 4];
            for (f, x) in q.iter_mut().enumerate() {
                *x = ((i * (5 + 4 * f) + 3 * f) % 19) as f64 / 16.0 - 1.0 / 16.0;
            }
            if i % 7 == 0 {
                q[i % 4] = f64::INFINITY;
            }
            if i % 11 == 0 {
                q[(i / 11) % 4] = f64::NEG_INFINITY;
            }
            if i % 13 == 0 {
                q[(i / 13 + 1) % 4] = f64::NAN;
            }
            q
        })
        .collect()
}

fn forest() -> RandomForest {
    let cfg = RandomForestConfig { n_trees: 20, ..RandomForestConfig::default() };
    RandomForest::fit(&training_set(), &cfg, 42)
}

/// `predict_proba(q).to_bits()` for each of [`queries`], recorded from the
/// recursive boxed-node trees this crate used before trees were stored flat.
#[rustfmt::skip]
const PINNED: [u64; 200] = [
    0x3fddd0a6714750e3, 0x3feac218d6c38dd2, 0x0000000000000000, 0x3fea39c8f48ef778,
    0x3fd3e385a54fdbce, 0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9,
    0x3fa259439e9af679, 0x3fd5037b61162976, 0x3fe8d34fcd4566ff, 0x3fa0690690690691,
    0x3fdf505fa99aa32d, 0x3fa1c548d4efbdf6, 0x3fd1d27ca121e71c, 0x3fa0690690690691,
    0x3fe1763b37f8c30d, 0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed,
    0x3feac218d6c38dd2, 0x3fc7f2253b580568, 0x3fead776f58c5a3e, 0x3fd3e385a54fdbce,
    0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9, 0x3fa259439e9af679,
    0x3fd70f2564a80243, 0x3fe8d34fcd4566ff, 0x3fa3b6a6c54309de, 0x3fdf505fa99aa32d,
    0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c, 0x3fa0690690690691, 0x3fe1763b37f8c30d,
    0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed, 0x3fead776f58c5a3e,
    0x0000000000000000, 0x3fea39c8f48ef778, 0x3fb133b88fab84f2, 0x3fc2ea031b12f8de,
    0x3fcd02738ed5afa3, 0x3fd6cce4ccd53ca9, 0x3fa259439e9af679, 0x3fd5037b61162976,
    0x3fe8d34fcd4566ff, 0x3fd13f7c1d6a2d91, 0x3fdf505fa99aa32d, 0x3fcff2ae1eeca6a3,
    0x3fd1d27ca121e71c, 0x3fa0690690690691, 0x3fe1763b37f8c30d, 0x3f8a8f92a1a8b513,
    0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed, 0x3feac218d6c38dd2, 0x0000000000000000,
    0x3fea39c8f48ef778, 0x3fd3e385a54fdbce, 0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4,
    0x3fd6cce4ccd53ca9, 0x3fa6f147bc58c2cc, 0x3fd495eed93fcfee, 0x3fe8d34fcd4566ff,
    0x3fa3b6a6c54309de, 0x3fdf505fa99aa32d, 0x3fa1c548d4efbdf6, 0x3fd1d27ca121e71c,
    0x3fa0690690690691, 0x3fe1763b37f8c30d, 0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e,
    0x3fceb6e30fecc1ed, 0x3fe77943ed525a86, 0x0000000000000000, 0x3fea39c8f48ef778,
    0x3fd3e385a54fdbce, 0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9,
    0x3fd13f7c1d6a2d91, 0x3fd5037b61162976, 0x3fe8d34fcd4566ff, 0x3fa3b6a6c54309de,
    0x3fdf505fa99aa32d, 0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c, 0x3fa0690690690691,
    0x3fe1763b37f8c30d, 0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed,
    0x3feac218d6c38dd2, 0x0000000000000000, 0x3fd5b0e6ca285e42, 0x3fd3e385a54fdbce,
    0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9, 0x3fa259439e9af679,
    0x3fe5de152225f48b, 0x3fe8d34fcd4566ff, 0x3fa3b6a6c54309de, 0x3fdf505fa99aa32d,
    0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c, 0x3fd406496025f245, 0x3fe1763b37f8c30d,
    0x3fa70ceb38d333d6, 0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed, 0x3feac218d6c38dd2,
    0x0000000000000000, 0x3fd5b0e6ca285e42, 0x3fd3e385a54fdbce, 0x3fc2ea031b12f8de,
    0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9, 0x3fa259439e9af679, 0x3fd5037b61162976,
    0x3fe8d34fcd4566ff, 0x3fa3b6a6c54309de, 0x3fa6f147bc58c2cc, 0x3fcff2ae1eeca6a3,
    0x3fd1d27ca121e71c, 0x3fa0690690690691, 0x3fe1763b37f8c30d, 0x3f9cdcef28c28b83,
    0x3fc1d913d5cac83a, 0x3fddd0a6714750e3, 0x3feac218d6c38dd2, 0x0000000000000000,
    0x3fea39c8f48ef778, 0x3fd3e385a54fdbce, 0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4,
    0x3fd6cce4ccd53ca9, 0x3fa259439e9af679, 0x3fd5037b61162976, 0x3fd1ede7da0d90be,
    0x3fa3b6a6c54309de, 0x3fdf505fa99aa32d, 0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c,
    0x3fa0690690690691, 0x3fe1763b37f8c30d, 0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e,
    0x3fceb6e30fecc1ed, 0x3feac218d6c38dd2, 0x3fd361aba4a102db, 0x3fea39c8f48ef778,
    0x3fe1e417a11e10ed, 0x3fc2ea031b12f8de, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9,
    0x3fa259439e9af679, 0x3fe5de152225f48b, 0x3fe8d34fcd4566ff, 0x3fa3b6a6c54309de,
    0x3fdf505fa99aa32d, 0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c, 0x3fa0690690690691,
    0x3fe85882e496cce0, 0x3f9cdcef28c28b83, 0x3fd3dff495bbda6e, 0x3fceb6e30fecc1ed,
    0x3feac218d6c38dd2, 0x0000000000000000, 0x3fea39c8f48ef778, 0x3fd3e385a54fdbce,
    0x3fa22a5b7f3af409, 0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9, 0x3fa259439e9af679,
    0x3fd5037b61162976, 0x3fe8d34fcd4566ff, 0x3faa5a8b6dad3723, 0x3fdf505fa99aa32d,
    0x3fcff2ae1eeca6a3, 0x3fd1d27ca121e71c, 0x3fa0690690690691, 0x3fccc43e54eefbce,
    0x3f9cdcef28c28b83, 0x3fd0ed798c9d49b9, 0x3fceb6e30fecc1ed, 0x3feac218d6c38dd2,
    0x0000000000000000, 0x3fea39c8f48ef778, 0x3fd3e385a54fdbce, 0x3fcd90f1ce42701a,
    0x3fd0a0f1199fa0b4, 0x3fd6cce4ccd53ca9, 0x3fe1e417a11e10ed, 0x3fd5037b61162976,
];

#[test]
fn predictions_are_bit_identical_to_the_pinned_values() {
    let forest = forest();
    for (i, (q, &want)) in queries().iter().zip(PINNED.iter()).enumerate() {
        let got = forest.predict_proba(q).to_bits();
        assert_eq!(
            got,
            want,
            "query {i} {q:?}: {} != {}",
            f64::from_bits(got),
            f64::from_bits(want)
        );
    }
}
