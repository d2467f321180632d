//! Not a suite: the mixed-content corpus `cross_validation.rs`,
//! `sharded_identity.rs` and `alloc_budget.rs` share.

use xclean_suite::xmltree::{TreeBuilder, XmlTree};

/// Book-title words (depth 4 leaves): a title query's best result type is
/// the book, or the title once the book is shallower than `min_depth`.
const TITLE: [&str; 12] = [
    "tree", "index", "trie", "graph", "trees", "grape", "search", "parse", "cache", "indexes",
    "parser", "caches",
];
/// Paragraph words (depth 5 leaves, three per chapter): frequent enough
/// below the book that a deeper type out-scores it. Book `i` uses
/// `PARA[i % 8]` and `PARA[(i + 1) % 8]`; `PARA[k]` and `PARA[k + 4]` are
/// one edit apart.
const PARA: [&str; 8] = [
    "query", "merge", "token", "stream", "quern", "marge", "taken", "streak",
];
/// Words found in one shelf's own text only (one shelf each up to twelve
/// shelves, so two of them meet at the root alone).
const SHELF: [&str; 12] = [
    "aisle",
    "corridor",
    "alcove",
    "annex",
    "gallery",
    "cellar",
    "balcony",
    "vestibule",
    "mezzanine",
    "basement",
    "attic",
    "atrium",
];

/// Queries over [`mixed_depth_library`]: clean and misspelt title pairs,
/// paragraph pairs, a title–paragraph pair that meets at the book, and
/// pairs whose only common ancestor is a shelf or the root.
pub const LIBRARY_QUERIES: [&str; 9] = [
    "tree index",
    "trea indx",
    "query merge",
    "quary marge",
    "tree query",
    "tree aisle",
    "aisle corridor",
    "stream",
    "graph taken",
];

/// `/library/shelf/book/{title, chapter/{heading, para×3}}` with indexed
/// text attached directly to every shelf (between its books) and every
/// book (between its chapters) — title, paragraph and shelf-only words —
/// so for `min_depth` 3 and 4 query tokens also occur on nodes shallower
/// than the gate, between entities. The root carries no text (the
/// partitioner's precondition); shelves are the shardable root children.
/// Odd shelves open with a `notice`, so a shard that starts on one interns
/// its label paths in another order than the whole library does and its
/// local path ids differ from the global ones.
pub fn mixed_depth_library(shelves: usize) -> XmlTree {
    let mut b = TreeBuilder::new("library");
    for s in 0..shelves {
        b.open("shelf");
        if s % 2 == 1 {
            b.leaf("notice", "reading room");
        }
        for k in 0..4 {
            let i = s * 4 + k;
            b.open("book");
            b.leaf(
                "title",
                &format!("{} {}", TITLE[i % 12], TITLE[(i * 5 + 1) % 12]),
            );
            for j in 0..2 + i % 3 {
                b.open("chapter");
                b.leaf("heading", &format!("part {}", TITLE[(i + j) % 12]));
                for extra in ["first", "second", "third"] {
                    let words = format!("{} {} {extra}", PARA[i % 8], PARA[(i + 1) % 8]);
                    b.leaf("para", &words);
                }
                b.close();
                b.text(&format!("edition {} ", PARA[(i + j % 2) % 8]));
            }
            b.close();
            b.text(&format!(
                "{} {} {} ",
                SHELF[s % 12],
                TITLE[(s + k) % 12],
                PARA[(s + 2 * k) % 8]
            ));
        }
        b.close();
    }
    b.finish()
}
