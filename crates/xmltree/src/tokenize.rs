//! Text tokenisation and vocabulary rules.
//!
//! The paper tokenises element contents "by white spaces and punctuations"
//! (§III) and, when building the index, skips stop words, numbers, and
//! tokens shorter than three characters (§VII-A).

/// English stop words excluded from the index. The list follows the short
/// classic IR stop list; the experiments are insensitive to its exact
/// membership because queries are built from content terms.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "if", "in", "into", "is", "it", "its", "no", "not", "of", "on", "or",
    "she", "such", "that", "the", "their", "then", "there", "these", "they", "this", "to", "was",
    "were", "will", "with",
];

/// The byte length of the longest stop word: a longer token is not
/// looked up.
const STOP_WORD_MAX_LEN: usize = 5;

/// Tokenisation policy: which tokens enter the vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizerConfig {
    /// Tokens shorter than this many characters are dropped (paper: 3).
    pub min_token_len: usize,
    /// Drop tokens that consist solely of digits (paper: yes).
    pub drop_numbers: bool,
    /// Drop stop words (paper: yes).
    pub drop_stop_words: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        TokenizerConfig {
            min_token_len: 3,
            drop_numbers: true,
            drop_stop_words: true,
        }
    }
}

/// Splits text into lowercase tokens according to the config.
///
/// Tokens are maximal runs of alphanumeric characters; everything else
/// (whitespace and punctuation) separates tokens. ASCII letters are
/// lowercased; non-ASCII alphabetic characters are kept as-is (folded via
/// `char::to_lowercase`), so `Schütze` tokenises to `schütze`.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Creates a tokenizer with the given policy.
    pub fn new(config: TokenizerConfig) -> Self {
        Tokenizer { config }
    }

    /// A tokenizer that keeps everything (used for query parsing, where the
    /// user's raw tokens must be preserved even if short).
    pub fn permissive() -> Self {
        Tokenizer {
            config: TokenizerConfig {
                min_token_len: 1,
                drop_numbers: false,
                drop_stop_words: false,
            },
        }
    }

    /// The active policy.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Tokenises `text`, invoking `f` for each accepted token.
    ///
    /// One pass over the bytes: an ASCII byte is classified and lowercased
    /// on its own, a non-ASCII char goes through `char::is_alphanumeric`
    /// and `char::to_lowercase`, and the token's char count and whether it
    /// is all digits are kept on the way, so no token is walked twice. A
    /// token that is already lowercase ASCII is handed out as a slice of
    /// `text`; one is copied only from its first char that lowercasing
    /// changes or that is not ASCII.
    pub fn for_each_token(&self, text: &str, mut f: impl FnMut(&str)) {
        let bytes = text.as_bytes();
        // The token under the scan: `text[start..i]`, or its lowercase
        // form in `buf` once `copied`; `chars` chars, all ASCII digits
        // while `digits`.
        let mut buf = String::new();
        let (mut start, mut chars, mut digits, mut copied) = (0, 0, true, false);
        let mut i = 0;
        // One step past the end reads as a space, which ends the last token.
        while i <= bytes.len() {
            let b = bytes.get(i).copied().unwrap_or(b' ');
            if b.is_ascii_lowercase() || b.is_ascii_digit() {
                // A run of bytes that lowercasing keeps.
                let run = i;
                let mut letters = false;
                while let Some(&b) = bytes.get(i) {
                    match b {
                        b'a'..=b'z' => letters = true,
                        b'0'..=b'9' => {}
                        _ => break,
                    }
                    i += 1;
                }
                if chars == 0 {
                    start = run;
                }
                if copied {
                    buf.push_str(&text[run..i]);
                }
                chars += i - run;
                digits &= !letters;
                continue;
            }
            let ch = if b.is_ascii() {
                char::from(b)
            } else {
                text[i..].chars().next().expect("i is on a char boundary")
            };
            if ch.is_alphanumeric() {
                // An uppercase ASCII letter or a non-ASCII char: from here
                // on the token is a lowercased copy.
                if chars == 0 {
                    start = i;
                }
                if !copied {
                    buf.clear();
                    buf.push_str(&text[start..i]);
                    copied = true;
                }
                if b.is_ascii() {
                    buf.push(char::from(b.to_ascii_lowercase()));
                    chars += 1;
                } else {
                    let lower = ch.to_lowercase();
                    chars += lower.len();
                    buf.extend(lower);
                }
                // No ASCII digit needs copying, and no char lowercases to one.
                digits = false;
            } else if chars > 0 {
                let token = if copied { &buf } else { &text[start..i] };
                if self.accept(token, chars, digits) {
                    f(token);
                }
                (chars, digits, copied) = (0, true, false);
            }
            i += ch.len_utf8();
        }
    }

    /// Tokenises `text` into an owned vector.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, |t| out.push(t.to_string()));
        out
    }

    /// Whether a lowercased token of `chars` chars, all ASCII digits when
    /// `digits` is set, passes the policy filters.
    fn accept(&self, token: &str, chars: usize, digits: bool) -> bool {
        chars >= self.config.min_token_len
            && !(self.config.drop_numbers && digits)
            && !(self.config.drop_stop_words
                && token.len() <= STOP_WORD_MAX_LEN
                && STOP_WORDS.binary_search(&token).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stop_word_list_is_sorted_for_binary_search() {
        let mut sorted = STOP_WORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOP_WORDS);
        let longest = STOP_WORDS.iter().map(|w| w.len()).max();
        assert_eq!(longest, Some(STOP_WORD_MAX_LEN));
    }

    /// The char-at-a-time definition the byte scan replaced: every char
    /// through `is_alphanumeric` and `to_lowercase`, the finished token's
    /// chars counted again by the filters.
    fn reference(t: &Tokenizer, text: &str) -> Vec<String> {
        let c = t.config();
        let accept = |tok: &str| {
            tok.chars().count() >= c.min_token_len
                && !(c.drop_numbers && tok.chars().all(|ch| ch.is_ascii_digit()))
                && !(c.drop_stop_words && STOP_WORDS.binary_search(&tok).is_ok())
        };
        let mut out = Vec::new();
        let mut buf = String::new();
        for ch in text.chars().chain([' ']) {
            if ch.is_alphanumeric() {
                buf.extend(ch.to_lowercase());
            } else if !buf.is_empty() {
                if accept(&buf) {
                    out.push(buf.clone());
                }
                buf.clear();
            }
        }
        out
    }

    /// Words the char soup rarely spells: stop words in both cases,
    /// numbers, short tokens and letters whose lowercase is longer
    /// (`İ` → `i̇`) or ASCII (the Kelvin sign `K` → `k`).
    const WORDS: &str = "the The THESE their with a an İs İt ıt ß Straße 2011 ٣٤٥ x86 42nd \
                         Kelvin ＡＢＣ de déjà ΣΟΦΊΑ database";

    proptest! {
        /// On any mix of ASCII letters, digits, punctuation, whitespace
        /// and non-ASCII letters, digits and marks, the byte scan yields
        /// the reference's tokens under both policies.
        #[test]
        fn byte_scan_matches_the_char_at_a_time_definition(
            soup in "[a-zA-Z0-9 .,;:!?'()/_\t\néÉüÜßİıΣσςΊКиK٣ＡＢ中\u{301}\u{a0}—…-]{0,48}",
            words in proptest::collection::vec((0usize..64, "[ ,.—İé]{1,2}"), 0..10),
        ) {
            let vocabulary: Vec<&str> = WORDS.split_whitespace().collect();
            let mut text = soup;
            for (w, sep) in words {
                text.push_str(vocabulary[w % vocabulary.len()]);
                text.push_str(&sep);
            }
            for t in [Tokenizer::default(), Tokenizer::permissive()] {
                let mut got = Vec::new();
                t.for_each_token(&text, |tok| got.push(tok.to_string()));
                prop_assert_eq!(got, reference(&t, &text), "text {:?}", text);
            }
        }
    }

    #[test]
    fn basic_splitting_and_lowercasing() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("Keyword Search, on XML-data!"),
            vec!["keyword", "search", "xml", "data"]
        );
    }

    #[test]
    fn filters_follow_paper_rules() {
        let t = Tokenizer::default();
        // stop word, number, short token all dropped
        assert_eq!(t.tokenize("the 2009 db survey"), vec!["survey"]);
        // "db" is short (<3), "2009" numeric, "the" stop word
    }

    #[test]
    fn unicode_is_preserved() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("Hinrich Schütze"), vec!["hinrich", "schütze"]);
    }

    #[test]
    fn permissive_keeps_everything() {
        let t = Tokenizer::permissive();
        assert_eq!(t.tokenize("a 42 db"), vec!["a", "42", "db"]);
    }

    #[test]
    fn hyphenated_terms_split() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("geo-tagging"), vec!["geo", "tagging"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("—!,.;:").is_empty());
    }
}
