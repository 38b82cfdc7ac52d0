package main

import (
	"fmt"
	"sort"

	"mqdp"
	"mqdp/internal/core"
	"mqdp/internal/textutil"
)

// coverCheck re-matches the admitted posts from outside the server path —
// its own keyword → subscription map and match.(*Matcher).MatchWords,
// no routing index — and verifies with mqdp.Verify that every subscription
// alive at the flush emitted a λ-cover, on every label, of the posts it
// matched while registered.
func coverCheck(in *serverInputs, rep *replica, res *result) {
	var subs []*rsub
	byKeyword := map[string][]int{}
	for _, s := range rep.all {
		if !s.flushed {
			continue
		}
		si := len(subs)
		subs = append(subs, s)
		seen := map[string]bool{}
		for _, t := range s.cfg.Topics {
			for _, kw := range t.Keywords {
				if !seen[kw.Text] {
					seen[kw.Text] = true
					byKeyword[kw.Text] = append(byKeyword[kw.Text], si)
				}
			}
		}
	}
	matched := make([][]core.Post, len(subs))
	stamp := make([]int, len(subs))
	for i := range stamp {
		stamp[i] = -1
	}
	for i, p := range in.posts {
		if !rep.admitted[i] {
			continue
		}
		words := textutil.Words(p.Text)
		for _, w := range words {
			for _, si := range byKeyword[w] {
				s := subs[si]
				if stamp[si] == i || i < s.from || i >= s.to {
					continue
				}
				stamp[si] = i
				if labels := s.matcher.MatchWords(words); len(labels) > 0 {
					matched[si] = append(matched[si], core.Post{ID: p.ID, Value: p.Time, Labels: labels})
				}
			}
		}
	}
	for si, s := range subs {
		err := verifyEmissions(matched[si], s)
		res.check(err == nil, "subscription %d: %v", s.id, err)
	}
}

func verifyEmissions(posts []core.Post, s *rsub) error {
	inst, err := mqdp.NewInstance(posts, s.matcher.NumTopics())
	if err != nil {
		return err
	}
	at := make(map[int64]int, inst.Len())
	for i, p := range inst.Posts() {
		at[p.ID] = i
	}
	selected := make([]int, 0, len(s.emissions))
	for _, e := range s.emissions {
		i, ok := at[e.PostID]
		if !ok {
			return fmt.Errorf("emitted post %d was never matched", e.PostID)
		}
		selected = append(selected, i)
	}
	sort.Ints(selected)
	if err := mqdp.Verify(inst, s.cfg.Lambda, selected); err != nil {
		return fmt.Errorf("not a λ-cover: %w", err)
	}
	return nil
}
