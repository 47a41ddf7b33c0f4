package control

// Changelogs returns the lengths of s's ack changelog (times and IDs)
// and of its replica-record changelog.
func Changelogs(s *State) (ackLog, ackIDs, metaLog int) {
	return len(s.ackLog), len(s.ackIDs), len(s.metaLog)
}
