#!/usr/bin/env bash
# check_links.sh — verify that the tracked docs only point at files that
# exist in the repository:
#
#   - relative markdown links, in every tracked top-level doc and docs/;
#   - backticked repo paths (`internal/sweep/doc.go`, `cmd/serve -addr`)
#     and `go run ./cmd/<name>` commands, in the docs that describe the
#     current tree: README.md, docs/ and the verify skill;
#   - capitalised doc names (`DESIGN.md`, `docs/ARCHITECTURE.md`) cited
#     by the tracked Go files, README.md, docs/ and the verify skill;
#   - command-line flags, in README.md, docs/ and the verify skill: each
#     -flag after `go run ./cmd/<name>`, or in a backticked
#     `cmd/<name> -flag` span, must be defined by a flag.*("<flag>"
#     call in cmd/<name>/*.go.
#
# External links (http/https/mailto) and pure #anchors are skipped so the
# check stays hermetic; CI gates on it.
#
#   scripts/check_links.sh            # exits non-zero on a broken link or path
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
shopt -s nullglob
files=(README.md ROADMAP.md BENCH.md CHANGES.md PAPER.md PAPERS.md SNIPPETS.md ISSUE.md docs/*.md)
for f in "${files[@]}"; do
	[ -f "$f" ] || continue
	while IFS= read -r target; do
		case "$target" in
		http://* | https://* | mailto:* | \#*) continue ;;
		esac
		path="${target%%#*}"
		[ -n "$path" ] || continue
		# Resolve like a markdown renderer does: relative to the file
		# containing the link, never the repo root.
		base="$(dirname "$f")"
		if [ ! -e "$base/$path" ]; then
			echo "check_links: $f: broken link -> $target" >&2
			fail=1
		fi
	done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# repo_paths prints the path-like words of file $1: the first word of each
# inline code span (fenced blocks skipped, spans may wrap lines) and the
# target of each `go run ./...` command.
repo_paths() {
	awk '/^[[:space:]]*```/ { fence = !fence; next } !fence { printf "%s ", $0 }' "$1" |
		grep -oE '`[^`]+`' | tr -d '`' | awk '{ print $1 }' || true
	grep -oE 'go run \./[A-Za-z0-9_./-]+' "$1" | sed 's/^go run //' || true
}

for f in README.md docs/*.md .claude/skills/verify/SKILL.md; do
	[ -f "$f" ] || continue
	while IFS= read -r word; do
		path="${word#./}"
		top="${path%%/*}"
		# Only words under a directory of this repository are paths;
		# /tmp/..., URLs and plain identifiers are not.
		[ "$path" != "$top" ] && [ -n "$top" ] && [ -d "$top" ] || continue
		case "$path" in
		*'<'* | *'{'* | *'$'*) continue ;; # placeholders
		esac
		path="${path%%.[[:upper:]]*}" # internal/estimate.Backend names a package
		if [[ "$path" == *'*'* ]]; then
			compgen -G "$path" >/dev/null && continue
		elif [ -e "$path" ]; then
			continue
		fi
		echo "check_links: $f: stale repo path -> $word" >&2
		fail=1
	done < <(repo_paths "$f")
done

# A bare NAME.md must be a tracked file at the root or under docs/; a
# relative path must be tracked as written; an absolute path (/tmp/E.md
# in a command) is not a repo doc. EXPERIMENTS.md is the one generated
# name allowed: it is cmd/experiments' -out default, pinned by that
# command's golden test (cmd/experiments/testdata), and not committed.
tracked="$(git ls-files)"
while IFS= read -r hit; do
	f="${hit%%:*}"
	name="${hit#*:}"
	name="${name#./}"
	case "$name" in
	/* | EXPERIMENTS.md) continue ;;
	*/*) candidates="$name" ;;
	*) candidates="$name docs/$name" ;;
	esac
	found=0
	for c in $candidates; do
		grep -qxF "$c" <<<"$tracked" && found=1
	done
	if [ "$found" -eq 0 ]; then
		echo "check_links: $f: names a missing doc -> $name" >&2
		fail=1
	fi
done < <(git ls-files -z '*.go' README.md 'docs/*.md' .claude/skills/verify/SKILL.md |
	xargs -0 grep -oE '[A-Za-z0-9_./-]*[A-Z][A-Z0-9_]*\.md\b' || true)

# doc_flags prints "<command> <flag>" for every flag file $1 passes to a
# repo command: after `go run ./cmd/<name>` up to the end of the shell
# command (fenced lines joined on a trailing backslash; a pipe,
# redirect, `&`, `;` or `#` ends it), and after `cmd/<name>` at the
# start of an inline code span (spans may wrap lines). A token such as
# -registry/-list-registries names two flags.
doc_flags() {
	awk '
	function flags(name, args,   n, i, t, k, j, part) {
		n = split(args, t, /[[:space:]]+/)
		for (i = 1; i <= n; i++) {
			if (t[i] !~ /^--?[A-Za-z]/) continue
			sub(/=.*/, "", t[i])
			k = split(t[i], part, "/")
			for (j = 1; j <= k; j++)
				if (part[j] ~ /^--?[A-Za-z][A-Za-z0-9_-]*$/) {
					sub(/^--?/, "", part[j])
					print name, part[j]
				}
		}
	}
	function commands(s,   name, rest) {
		while (match(s, /go run \.\/cmd\/[A-Za-z0-9_-]+/)) {
			name = substr(s, RSTART + 13, RLENGTH - 13)
			s = substr(s, RSTART + RLENGTH)
			rest = s
			sub(/[|&;>#].*/, "", rest)
			flags(name, rest)
		}
	}
	/^[[:space:]]*```/ { fence = !fence; next }
	fence {
		line = line $0
		if (line ~ /\\$/) { sub(/\\$/, " ", line); next }
		commands(line)
		line = ""
		next
	}
	{ text = text $0 " " }
	END {
		while (match(text, /`[^`]+`/)) {
			span = substr(text, RSTART + 1, RLENGTH - 2)
			text = substr(text, RSTART + RLENGTH)
			if (match(span, /^cmd\/[A-Za-z0-9_-]+[[:space:]]/))
				flags(substr(span, 5, RLENGTH - 5), substr(span, RLENGTH + 1))
			else
				commands(span)
		}
	}' "$1"
}

for f in README.md docs/*.md .claude/skills/verify/SKILL.md; do
	[ -f "$f" ] || continue
	while read -r name flag; do
		# A missing cmd/<name> is reported above as a stale repo path.
		[ -d "cmd/$name" ] || continue
		grep -qE "flag\.[A-Za-z0-9]+\(\"$flag\"" "cmd/$name"/*.go && continue
		echo "check_links: $f: cmd/$name has no -$flag flag" >&2
		fail=1
	done < <(doc_flags "$f" | sort -u)
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check_links: all relative links, repo paths and command flags resolve" >&2
